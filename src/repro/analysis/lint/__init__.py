"""AST-based repo invariant linter (REPRO001–REPRO007; REPRO004 is retired).

Run as ``python -m repro.analysis.lint src/`` (CI's ``lint`` job), or
programmatically::

    from repro.analysis.lint import Linter
    diagnostics = Linter().run(["src"])

See :mod:`~repro.analysis.lint.rules` for the rule catalog and
:mod:`~repro.analysis.lint.engine` for the suppression syntax.
"""

from __future__ import annotations

from .engine import Linter, SourceFile, main, parse_source

__all__ = ["Linter", "SourceFile", "main", "parse_source"]
