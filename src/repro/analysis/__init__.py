"""Static analysis: the repo linter and the concurrency pass.

Both move whole classes of bugs from runtime to a deterministic static
check, and both report :class:`~repro.analysis.diagnostics.Diagnostic`
records:

- **Repo linter** (:mod:`~repro.analysis.lint`): an AST-based lint pass
  enforcing repo-wide invariants (REPRO001–REPRO007; REPRO004 is
  retired), run by CI as ``python -m repro.analysis.lint src/``.
- **Concurrency pass** (:mod:`~repro.analysis.concurrency`): static
  lock-order/lockset analysis (CONC001–CONC005, ``python -m
  repro.analysis.concurrency src/``) plus the opt-in runtime race
  harness (``REPRO_RACECHECK=1``).

Plans are checked where they compile: each plan node's schema rule
(:mod:`repro.substrate.relational.algebra`) raises the ``PLAN`` codes
listed in :mod:`~repro.analysis.diagnostics`.

The package imports nothing itself: the runtime race harness lives here
yet is imported by leaf lock-owning modules (``obs/metrics.py``,
``cache/lru.py``, ``util/text.py``).
"""
