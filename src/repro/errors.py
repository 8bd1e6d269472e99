"""Exception hierarchy for the CopyCat reproduction.

Every error raised by the library derives from :class:`CopyCatError`, so
callers can catch a single base class. Sub-hierarchies mirror the major
subsystems (relational substrate, documents, services, learners, workspace).
"""

from __future__ import annotations


class CopyCatError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(CopyCatError):
    """A schema is malformed or two schemas are incompatible."""


class UnknownAttributeError(SchemaError):
    """An attribute name was not found in a schema."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = tuple(available)
        detail = f"unknown attribute {name!r}"
        if available:
            detail += f" (available: {', '.join(available)})"
        super().__init__(detail)


class BindingError(CopyCatError):
    """A service/source was invoked without its required input bindings."""


class EvaluationError(CopyCatError):
    """A query plan could not be evaluated."""


class CatalogError(CopyCatError):
    """A catalog lookup or registration failed."""


class DocumentError(CopyCatError):
    """A document (DOM / spreadsheet / website) operation failed."""


class NavigationError(DocumentError):
    """A URL or page could not be resolved in a simulated website."""


class ClipboardError(CopyCatError):
    """Copy/paste event is malformed or out of order."""


class ServiceError(CopyCatError):
    """A simulated service invocation failed."""


class TransientServiceError(ServiceError):
    """A retryable backend hiccup (timeout, flap, injected transient fault).

    The resilient invocation path retries these with backoff; they are
    *never* memoized, so a flaky moment cannot poison the service cache.
    """

    def __init__(self, message: str, service: str | None = None):
        self.service = service
        super().__init__(message)


class ServiceLookupFailed(ServiceError):
    """A service could not answer for the given inputs.

    Raised by :meth:`Service.invoke` once retries/deadline/breaker are
    exhausted; the evaluator converts it into a *degraded* partial result
    instead of aborting the plan. ``transient`` distinguishes "the backend
    was flaky" from "the backend is definitively broken for these inputs".
    """

    def __init__(self, message: str, service: str | None = None, transient: bool = False):
        self.service = service
        self.transient = transient
        super().__init__(message)


class CircuitOpenError(ServiceLookupFailed):
    """The service's circuit breaker is open: call rejected without a lookup."""

    def __init__(self, message: str, service: str | None = None):
        super().__init__(message, service=service, transient=True)


class DeadlineExceededError(ServiceLookupFailed):
    """The per-invocation deadline budget ran out mid-retry."""

    def __init__(self, message: str, service: str | None = None):
        super().__init__(message, service=service, transient=True)


class LearningError(CopyCatError):
    """A learner was used incorrectly or could not form a hypothesis."""


class NoHypothesisError(LearningError):
    """The structure learner found no hypothesis consistent with the examples."""


class ProvenanceError(CopyCatError):
    """A provenance expression is malformed or cannot be evaluated."""


class WorkspaceError(CopyCatError):
    """An invalid workspace interaction (bad cell, bad mode transition)."""


class FeedbackError(CopyCatError):
    """A feedback event could not be routed or applied."""


class ExportError(CopyCatError):
    """Export to an external format failed."""


class PlanAnalysisError(SchemaError, EvaluationError):
    """A plan failed a check as it compiled; nothing of it has executed.

    ``diagnostic`` (:class:`repro.analysis.diagnostics.Diagnostic`) carries
    the check's code (``PLAN001``–``PLAN003``, ``PLAN005``) and the
    offending operator's ``describe()``. Node schema rules and the
    evaluator's compiler raise it, so it is both a schema and an
    evaluation error.
    """

    def __init__(self, message: str, diagnostic=None):
        self.diagnostic = diagnostic
        super().__init__(message)


class IntegrationError(CopyCatError):
    """The integration learner could not build or rank queries."""


class GraphError(IntegrationError):
    """A source-graph operation failed (missing node, disconnected terminals)."""
