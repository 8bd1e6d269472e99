"""Zero-dependency observability: tracing, metrics, and exporters.

The substrate, learners, engine, and session are all instrumented
against the two process-wide singletons here — :data:`TRACER` and
:data:`METRICS` — which are **disabled by default** and cost one branch
per call site while off (no allocation on the disabled path).

Enable everything, run a workload, read it back::

    from repro import obs

    obs.enable()
    ...                               # any session / engine / learner work
    print("\\n".join(obs.render_span_tree(obs.TRACER.roots())))
    print("\\n".join(obs.render_summary()))
    obs.disable(); obs.reset()
"""

from __future__ import annotations

from .metrics import METRICS, Metrics, percentile
from .trace import NULL_SPAN, TRACER, Span, Tracer, traced
from .export import (
    observability_snapshot,
    render_span_tree,
    render_summary,
    span_to_dict,
    spans_to_dicts,
    to_json,
)

__all__ = [
    "METRICS",
    "Metrics",
    "NULL_SPAN",
    "TRACER",
    "Span",
    "Tracer",
    "traced",
    "percentile",
    "observability_snapshot",
    "render_span_tree",
    "render_summary",
    "span_to_dict",
    "spans_to_dicts",
    "to_json",
    "enable",
    "disable",
    "reset",
]


def enable(tracing: bool = True, metrics: bool = True) -> None:
    """Turn observability on (both halves by default)."""
    if tracing:
        TRACER.enable()
    if metrics:
        METRICS.enable()


def disable() -> None:
    """Turn both halves off (collected data is kept until :func:`reset`)."""
    TRACER.disable()
    METRICS.disable()


def reset() -> None:
    """Drop every collected span and metric."""
    TRACER.clear()
    METRICS.reset()
