"""Exporters: span trees and metric snapshots as text or JSON.

The text renderers are what ``python -m repro --trace`` prints; the JSON
shapes are what ``benchmarks/common.write_report`` embeds in the
``benchmarks/reports/*.json`` siblings that CI diffs across commits.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from ..util.knobs import changed_knobs
from .metrics import METRICS, Metrics
from .registry import DECLARED_COUNTERS, DECLARED_GAUGES
from .trace import TRACER, Span, Tracer


# -- span trees ---------------------------------------------------------------
def span_to_dict(span: Span) -> dict[str, Any]:
    """One span (and its subtree) as a JSON-ready dict."""
    return {
        "name": span.name,
        "wall_ms": span.wall_ms,
        "cpu_ms": span.cpu_ms,
        "attributes": dict(span.attributes),
        "children": [span_to_dict(child) for child in span.children],
    }


def spans_to_dicts(spans: Iterable[Span]) -> list[dict[str, Any]]:
    return [span_to_dict(span) for span in spans]


def render_span_tree(spans: Iterable[Span], indent: str = "  ") -> list[str]:
    """Indented text lines for a sequence of root spans."""
    lines: list[str] = []

    def visit(span: Span, depth: int) -> None:
        wall = f"{span.wall_ms:.2f}" if span.wall_ms is not None else "?"
        cpu = f"{span.cpu_ms:.2f}" if span.cpu_ms is not None else "?"
        attrs = ""
        if span.attributes:
            parts = ", ".join(f"{k}={v}" for k, v in span.attributes.items())
            attrs = f"  [{parts}]"
        lines.append(f"{indent * depth}{span.name}  wall={wall}ms cpu={cpu}ms{attrs}")
        for child in span.children:
            visit(child, depth + 1)

    for root in spans:
        visit(root, 0)
    return lines


# -- metric summary -----------------------------------------------------------
def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def render_summary() -> list[str]:
    """The metric summary as text lines, laid out by the declared registry.

    One ``group:`` line per first name segment (``cache:``, ``server:``,
    ...) lists every declared counter and gauge of the group, 0 when
    nothing recorded it, and every recorded name the group's wildcard
    patterns cover. Each recorded histogram gets a line of its own. The
    last line, ``knobs:``, names each knob set away from its default.
    """
    snapshot = METRICS.snapshot()
    recorded = {**snapshot["counters"], **snapshot["gauges"]}
    groups: dict[str, dict[str, float]] = {}
    for name in (*DECLARED_COUNTERS, *DECLARED_GAUGES, *recorded):
        group, _, rest = name.partition(".")
        values = groups.setdefault(group, {})
        if "*" not in name:
            values[rest or name] = recorded.get(name, 0.0)
    lines = [
        f"{group}:" + "".join(f" {name}={_number(value)}" for name, value in sorted(values.items()))
        for group, values in sorted(groups.items())
    ]
    for name, summary in sorted(snapshot["histograms"].items()):
        lines.append(
            f"histogram {name}: count={summary['count']:g} "
            f"mean={summary['mean']:.3f} p50={summary['p50']:.3f} "
            f"p95={summary['p95']:.3f} max={summary['max']:.3f}"
        )
    changed = " ".join(f"{env}={value}" for env, value in changed_knobs().items())
    lines.append(f"knobs: {changed or 'all defaults'}")
    return lines


# -- combined export ----------------------------------------------------------
def observability_snapshot(
    tracer: Tracer | None = None, metrics: Metrics | None = None
) -> dict[str, Any]:
    """Everything observed so far: span trees plus the metrics snapshot."""
    tracer = tracer if tracer is not None else TRACER
    metrics = metrics if metrics is not None else METRICS
    return {
        "spans": spans_to_dicts(tracer.roots()),
        "metrics": metrics.snapshot(),
    }


def to_json(
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    indent: int | None = 2,
) -> str:
    """The combined snapshot serialized as JSON text."""
    return json.dumps(observability_snapshot(tracer, metrics), indent=indent)
