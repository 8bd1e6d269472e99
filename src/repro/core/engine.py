"""The query engine facade (CopyCat's ORCHESTRA layer).

Section 2.3: "CopyCat employs the ORCHESTRA query answering system, which
builds a layer over a relational DBMS to annotate every answer with data
provenance." Here the relational substrate's evaluator plays that role;
this facade adds per-tuple explanation and feedback-target extraction.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..cache.tiers import CacheTiers
from ..obs import METRICS, TRACER
from ..provenance.explain import Explanation, explain
from ..provenance.expressions import Provenance
from ..substrate.relational.algebra import Plan
from ..substrate.relational.catalog import Catalog
from ..substrate.relational.evaluator import Evaluator, Result
from ..substrate.relational.rows import Row, TupleId


class QueryEngine:
    """Evaluates plans and explains their answers.

    A malformed plan raises :class:`~repro.errors.PlanAnalysisError` from
    :meth:`run` while the evaluator compiles it, before any of it executes.
    """

    def __init__(self, catalog: Catalog, tiers: CacheTiers | None = None):
        self.catalog = catalog
        self._evaluator = Evaluator(catalog, tiers)
        self.queries_run = 0

    def run(self, plan: Plan, distinct: bool = True) -> Result:
        """Evaluate *plan*; with *distinct*, duplicates merge via ⊕."""
        self.queries_run += 1
        with TRACER.span("engine.run") as span, METRICS.timer("engine.run_ms"):
            result = self._evaluator.run(plan)
            merged = result.merged() if distinct else result
            if span.is_recording():
                span.set("plan", plan.describe())
                span.set("rows", len(merged.rows))
                if merged.degraded:
                    span.set("degraded", ",".join(merged.degraded_services()))
            METRICS.inc("engine.queries")
            if merged.degraded and METRICS.enabled:
                METRICS.inc("resilience.degraded_results")
            return merged

    def set_service_level(self, level: str) -> None:
        """Propagate the session's brownout level into the evaluator."""
        self._evaluator.service_level = level

    def explain_row(self, prov: Provenance, plan: Plan | None = None) -> Explanation:
        """The Tuple Explanation pane for one annotated answer."""
        return explain(prov, self.catalog, plan)

    def base_tuples(self, prov: Provenance) -> frozenset[TupleId]:
        """Every base tuple involved in any derivation of the answer."""
        return prov.variables()

    def lookup(
        self, result: Result, key_values: Mapping[str, Any]
    ) -> list[tuple[Row, Provenance]]:
        """Rows of *result* matching all the given attribute values."""
        matches = []
        for row, prov in result.rows:
            if all(row.get(name) == value for name, value in key_values.items()):
                matches.append((row, prov))
        return matches
