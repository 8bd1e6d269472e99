"""Diagnostics: the shared finding type for plan checks and the linters.

Plan checks, the repo linter and the concurrency pass all report
:class:`Diagnostic` records — a stable code, a severity, a message, and a
location. Plan diagnostics locate themselves by *operator* (the offending
plan node's ``describe()``); lint diagnostics by *path* (``file:line``).

Codes
-----
Plan checks (``PLAN``), raised as :class:`~repro.errors.PlanAnalysisError`
while the evaluator compiles a plan, before anything executes:

- ``PLAN001`` — unknown or wrong-kind source (scan of a missing relation,
  scan of a service, dependent join on a missing service or a relation);
- ``PLAN002`` — unknown attribute (projection, rename, selection
  predicate, join key, grouping key, aggregate input, binding source);
- ``PLAN003`` — unsatisfiable binding pattern (service inputs left
  unbound by the dependent-join input map);
- ``PLAN005`` — unknown plan node type (no evaluator for its class name).

``PLAN004`` (the leaves a walk reaches equal ``Plan.sources()``) is a
property test over generated plans, not a runtime check.

Repo linter (``REPRO``): see :mod:`repro.analysis.lint.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code, severity, message, and where it points."""

    code: str
    severity: str
    message: str
    operator: str | None = None   # plan diagnostics: offending node describe()
    path: str | None = None       # lint diagnostics: "file:line"

    def render(self) -> str:
        location = self.path or self.operator or "<plan>"
        return f"{location}: {self.severity} {self.code}: {self.message}"
