"""Diagnostics: the shared finding type for both analysis levels.

The plan analyzer (level 1) and the repo linter (level 2) both report
:class:`Diagnostic` records — a stable code, a severity, a message, and a
location. Plan diagnostics locate themselves by *operator* (the offending
plan node's ``describe()``); lint diagnostics by *path* (``file:line``).

Codes
-----
Plan analyzer (``PLAN``):

- ``PLAN001`` — unknown or wrong-kind source (scan of a missing relation,
  scan of a service, dependent join on a missing service);
- ``PLAN002`` — unknown attribute (projection, rename, selection
  predicate, join key, grouping key, aggregate input, binding source);
- ``PLAN003`` — unsatisfiable binding pattern (service inputs left
  unbound by the dependent-join input map or the source-graph node);
- ``PLAN004`` — provenance unsoundness (a leaf source unreachable from
  ``Plan.sources()``: some node overrides ``_collect_sources`` badly);
- ``PLAN005`` — unknown plan node type (no analyzer check for its class
  name);
- ``PLAN101`` — potential cartesian blowup (warning);
- ``PLAN102`` — unbounded/over-wide union (warning);
- ``PLAN103`` — degenerate operator parameter (warning: threshold that
  links everything, non-positive limit).

Repo linter (``REPRO``): see :mod:`repro.analysis.lint.rules`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PlanAnalysisError

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code, severity, message, and where it points."""

    code: str
    severity: str
    message: str
    operator: str | None = None   # plan diagnostics: offending node describe()
    path: str | None = None       # lint diagnostics: "file:line"

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        location = self.path or self.operator or "<plan>"
        return f"{location}: {self.severity} {self.code}: {self.message}"


@dataclass(frozen=True)
class AnalysisReport:
    """The outcome of one analysis pass: every diagnostic, split by severity."""

    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if not d.is_error)

    @property
    def ok(self) -> bool:
        """True when no *error* was found (warnings do not block)."""
        return not self.errors

    def raise_if_errors(self) -> None:
        """Raise :class:`PlanAnalysisError` carrying every error found."""
        errors = self.errors
        if errors:
            summary = "; ".join(d.render() for d in errors[:3])
            if len(errors) > 3:
                summary += f" (+{len(errors) - 3} more)"
            raise PlanAnalysisError(
                f"plan failed static analysis with {len(errors)} error(s): {summary}",
                diagnostics=errors,
            )

    def render(self) -> str:
        if not self.diagnostics:
            return "analysis: clean"
        return "\n".join(d.render() for d in self.diagnostics)
