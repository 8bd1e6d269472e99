"""The query engine facade (CopyCat's ORCHESTRA layer).

Section 2.3: "CopyCat employs the ORCHESTRA query answering system, which
builds a layer over a relational DBMS to annotate every answer with data
provenance." Here the relational substrate's evaluator plays that role;
this facade adds per-tuple explanation and feedback-target extraction.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..analysis.config import ANALYSIS
from ..analysis.plan_analyzer import PlanAnalyzer
from ..cache.fingerprint import plan_fingerprint
from ..cache.tiers import CacheTiers
from ..obs import METRICS, TRACER
from ..provenance.explain import Explanation, explain
from ..provenance.expressions import Provenance
from ..substrate.relational.algebra import Plan
from ..substrate.relational.catalog import Catalog
from ..substrate.relational.evaluator import Evaluator, Result
from ..substrate.relational.rows import Row, TupleId


class QueryEngine:
    """Evaluates plans and explains their answers."""

    def __init__(self, catalog: Catalog, tiers: CacheTiers | None = None):
        self.catalog = catalog
        self._evaluator = Evaluator(catalog, tiers)
        self.queries_run = 0
        # Static analysis (repro.analysis): every plan is checked against
        # the catalog — and the source graph when a supplier is wired in
        # (CopyCatSession does) — before it reaches the evaluator.
        self.graph_supplier: Callable[[], Any] | None = None
        self._analyzer = PlanAnalyzer(catalog)
        # The analysis-report memo is one of the evaluator's cache tiers:
        # private per engine by default, shared fleet-wide under the server
        # (analysis is pure graph-topology + catalog-schema work, so a
        # report is valid for every tenant on the same scope/version).
        self._analysis_memo = self._evaluator.tiers.analysis

    def _check_plan(self, plan: Plan) -> None:
        """Run the static plan analyzer; raises PlanAnalysisError on errors.

        Verdicts are memoized on ``(fingerprint, catalog.version)`` — the
        same key the result cache uses — so a suggestion refresh re-checking
        the same candidate plans pays the analysis once.
        """
        if self.graph_supplier is not None:
            self._analyzer.graph = self.graph_supplier()
        key = None
        try:
            key = (self.catalog.cache_scope, plan_fingerprint(plan), self.catalog.version)
        except TypeError:
            pass  # unhashable field: analyze unmemoized
        if key is not None:
            report = self._analysis_memo.get(key)
            if report is None:
                report = self._analyzer.check(plan)
                self._analysis_memo.put(key, report)
        else:
            report = self._analyzer.check(plan)
        if METRICS.enabled:
            METRICS.inc("analysis.plans_checked")
            if report.errors:
                METRICS.inc("analysis.errors", len(report.errors))
            if report.warnings:
                METRICS.inc("analysis.warnings", len(report.warnings))
        report.raise_if_errors()

    def run(self, plan: Plan, distinct: bool = True) -> Result:
        """Evaluate *plan*; with *distinct*, duplicates merge via ⊕."""
        self.queries_run += 1
        if ANALYSIS.enabled:
            self._check_plan(plan)
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
