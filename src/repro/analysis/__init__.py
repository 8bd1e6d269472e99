"""Static analysis: plan checks, the repo linter, and the concurrency pass.

Three levels, one goal — move whole classes of bugs from runtime (or from
silently-wrong cached results) to a deterministic static check:

- **Level 1 — plan analyzer** (:mod:`~repro.analysis.plan_analyzer`):
  semantic checks over the ``Plan`` algebra against the catalog and
  source graph — schema/arity inference, binding-pattern satisfiability,
  provenance soundness, blowup warnings, and analyzer dispatch by class
  name. Wired into :class:`repro.core.engine.QueryEngine` (every plan is
  checked before it reaches the evaluator), behind the env-tunable
  :data:`ANALYSIS` config.
- **Level 2 — repo linter** (:mod:`~repro.analysis.lint`): an AST-based
  lint pass enforcing repo-wide invariants (REPRO001–REPRO006; REPRO004
  is retired), run by CI as ``python -m repro.analysis.lint src/``.
- **Level 3 — concurrency pass** (:mod:`~repro.analysis.concurrency`):
  static lock-order/lockset analysis (CONC001–CONC005, ``python -m
  repro.analysis.concurrency src/``) plus the opt-in runtime race
  harness (``REPRO_RACECHECK=1``).

Heavy members resolve lazily (PEP 562): the runtime race harness lives
under this package yet is imported by leaf lock-owning modules
(``obs/metrics.py``, ``cache/lru.py``, ``util/text.py``), so importing
``repro.analysis.concurrency.runtime`` must not drag in the plan
analyzer, which imports the cache layer, which imports obs — a cycle.
Only the config is eager.
"""

from __future__ import annotations

from .config import ANALYSIS, AnalysisConfig

_LAZY = {
    "AnalysisReport": ".diagnostics",
    "Diagnostic": ".diagnostics",
    "PlanAnalyzer": ".plan_analyzer",
    "predicate_attributes": ".plan_analyzer",
}

__all__ = [
    "ANALYSIS",
    "AnalysisConfig",
    "AnalysisReport",
    "Diagnostic",
    "PlanAnalyzer",
    "predicate_attributes",
]


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(modname, __name__), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
