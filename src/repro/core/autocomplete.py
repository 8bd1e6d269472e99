"""The auto-complete generator (Figure 3).

"A ranked set of promising extractors and queries is produced by the
auto-complete generator. In turn these queries are run by the query engine
to produce example answers, which are output to the user as extra rows and
columns in the workspace."

This module turns learner outputs into executed, row-aligned suggestions:

- row suggestions: structure-learner generalizations minus the user's rows;
- type suggestions: model-learner hypotheses per column;
- column suggestions: integration-learner completions, executed by the
  engine, their values aligned to the current workspace rows, re-ranked by
  (cost, coverage).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..learning.integration.learner import IntegrationLearner
from ..learning.integration.queries import IntegrationQuery
from ..learning.model.type_learner import SemanticTypeLearner
from ..learning.structure.learner import StructureLearner
from ..obs import METRICS
from ..server.overload import check_deadline
from ..substrate.documents.clipboard import CopyEvent
from ..substrate.relational.evaluator import Result
from ..substrate.relational.schema import ANY
from ..util.text import normalize
from .engine import QueryEngine
from .suggestions import ColumnSuggestion, QuerySuggestion, RowSuggestion, TypeSuggestion

#: ranking cost a column suggestion pays per service that failed while
#: computing it.
DEGRADED_PENALTY = 0.75


class AutoCompleteGenerator:
    """Combines the three learners into executed workspace suggestions."""

    def __init__(
        self,
        engine: QueryEngine,
        structure_learner: StructureLearner,
        type_learner: SemanticTypeLearner,
        integration_learner: IntegrationLearner,
    ):
        self.engine = engine
        self.structure_learner = structure_learner
        self.type_learner = type_learner
        self.integration_learner = integration_learner

    # -- rows (import mode) -------------------------------------------------------
    def row_suggestions(
        self, event: CopyEvent, examples: Sequence[Sequence[str]]
    ) -> RowSuggestion | None:
        """Generalize the user's pastes into proposed additional rows."""
        generalization = self.structure_learner.generalize(event, examples)
        if not generalization.hypotheses:
            return None
        return RowSuggestion(
            source_name=event.context.source_name,
            rows=generalization.suggested_rows(),
            generalization=generalization,
        )

    # -- column types ---------------------------------------------------------------
    def type_suggestions(
        self, columns: Sequence[Sequence[Any]], top_k: int = 3
    ) -> list[TypeSuggestion]:
        """Ranked semantic-type hypotheses for each column of a table."""
        out = []
        for index, values in enumerate(columns):
            hypotheses = self.type_learner.recognize(
                [v for v in values if v is not None], top_k=top_k
            )
            out.append(TypeSuggestion(column_index=index, hypotheses=hypotheses))
        return out

    # -- columns (integration mode) -----------------------------------------------------
    def column_suggestions(
        self,
        query: IntegrationQuery,
        workspace_rows: Sequence[Mapping[str, Any]],
        k: int = 5,
        visible_attributes: Sequence[str] | None = None,
    ) -> list[ColumnSuggestion]:
        """Executed, aligned, ranked column auto-completions.

        ``workspace_rows`` are the committed rows of the current tab (dicts
        keyed by column label); alignment matches result rows to workspace
        rows on the attributes they share.
        """
        completions = self.integration_learner.column_completions(
            query, k=max(k * 2, k), visible_attributes=visible_attributes
        )
        catalog = self.engine.catalog
        base_names = set(query.output_schema(catalog).names)
        suggestions: list[ColumnSuggestion] = []
        for completion in completions:
            # Cooperative cancellation between candidate executions: a
            # refresh whose deadline lapsed stops before the next plan.
            check_deadline("autocomplete.completion")
            result = self.engine.run(completion.query.plan)
            schema = result.schema
            added = completion.added_attributes
            shared = [
                name
                for name in schema.names
                if name in base_names and workspace_rows and name in workspace_rows[0]
            ]
            values: list[tuple[Any, ...]] = []
            provenances = []
            alternatives: list[list[tuple[Any, ...]]] = []
            hits = 0
            for matches in _aligned_matches(result, workspace_rows, shared):
                if matches:
                    hits += 1
                    first_row, first_prov = matches[0]
                    values.append(tuple(first_row.get(name) for name in added))
                    provenances.append(first_prov)
                    alternatives.append(
                        [
                            tuple(row.get(name) for name in added)
                            for row, _ in matches[1:]
                        ]
                    )
                else:
                    values.append(tuple(None for _ in added))
                    provenances.append(None)
                    alternatives.append([])
            coverage = hits / len(workspace_rows) if workspace_rows else 0.0
            # Graceful degradation: a suggestion whose query lost a service
            # mid-execution is still offered (partial answers beat losing
            # the column), but rank-penalized per failed service and
            # flagged so the user sees why values are missing.
            degraded = result.degraded_services()
            score = completion.cost + DEGRADED_PENALTY * len(degraded)
            if degraded and METRICS.enabled:
                METRICS.inc("resilience.degraded_suggestions")
            suggestions.append(
                ColumnSuggestion(
                    completion=completion,
                    attribute_names=added,
                    semantic_types=tuple(
                        schema.attribute(name).semantic_type if name in schema else ANY
                        for name in added
                    ),
                    values=values,
                    provenances=provenances,
                    alternatives=alternatives,
                    coverage=coverage,
                    score=score,
                    degraded=degraded,
                )
            )
        # Rank by learned cost (degradation-penalized); break ties by
        # executed coverage and by the trust scores the feedback loop
        # maintains per source ("the learners adjust source scores",
        # Section 2.2).
        suggestions.sort(
            key=lambda s: (s.score, -s.coverage, -self._source_trust(s), s.source)
        )
        return suggestions[:k]

    def _source_trust(self, suggestion: ColumnSuggestion) -> float:
        """Mean trust of the catalog sources the suggestion's query uses."""
        catalog = self.engine.catalog
        trusts = [
            catalog.metadata(node).trust
            for node in suggestion.query.nodes
            if node in catalog
        ]
        return sum(trusts) / len(trusts) if trusts else 1.0

    # -- cross-source paste (Steiner mode) ----------------------------------------------
    def query_suggestions(
        self, pasted_columns: Mapping[str, Sequence[Any]], k: int = 3
    ) -> list[QuerySuggestion]:
        """Steiner-mode query explanations for user-pasted cross-source tuples."""
        queries = self.integration_learner.explain_tuples(pasted_columns, k=k)
        return [QuerySuggestion(query=query, cost=query.cost) for query in queries]


def _aligned_matches(
    result: Result,
    workspace_rows: Sequence[Mapping[str, Any]],
    shared: Sequence[str],
) -> list[list[tuple[Any, Any]]]:
    """Per workspace row, the result ``(row, prov)`` pairs that soft-equal
    it on every *shared* attribute, in result order.

    Two cells soft-equal when they are ``==``, or when neither is ``None``
    and ``normalize(str(cell))`` agrees (so ``1`` matches ``1.0`` and
    ``"1"`` matches ``1``, yet ``"1"`` does not match ``"1.0"``). One index
    per shared attribute holds that relation exactly: each result row's
    shared cells are read once, by schema position, and each cell is
    bucketed by its value and, when not ``None``, by its normalized text.
    A workspace row's matches are the intersection, over the shared
    attributes, of the union of its two buckets.
    """
    rows = result.rows
    indexes = [_SoftIndex(rows, result.schema.position(name)) for name in shared]
    matches = []
    for workspace_row in workspace_rows:
        found: set[int] | None = None
        for index, name in zip(indexes, shared):
            hits = index.matching(workspace_row.get(name))
            found = hits if found is None else found & hits
            if not found:
                break
        if found is None:
            matches.append(list(rows))
        else:
            matches.append([rows[number] for number in sorted(found)])
    return matches


class _SoftIndex:
    """One shared attribute's result cells, bucketed for soft-equality probes."""

    __slots__ = ("cells", "by_value", "by_text", "unhashable")

    def __init__(self, rows: Sequence[tuple[Any, Any]], position: int):
        self.cells = [row.values[position] for row, _ in rows]
        self.by_value: dict[Any, set[int]] = {}
        self.by_text: dict[str, set[int]] = {}
        self.unhashable: list[int] = []  # cells no dict can hold; compared by ==
        for number, cell in enumerate(self.cells):
            try:
                self.by_value.setdefault(cell, set()).add(number)
            except TypeError:
                self.unhashable.append(number)
            if cell is not None:
                self.by_text.setdefault(normalize(str(cell)), set()).add(number)

    def matching(self, value: Any) -> set[int]:
        """Row numbers whose cell soft-equals *value*."""
        try:
            hits = set(self.by_value.get(value, ()))
        except TypeError:  # an unhashable probe: compare it with every cell
            hits = {number for number, cell in enumerate(self.cells) if cell == value}
        else:
            hits.update(number for number in self.unhashable if self.cells[number] == value)
        if value is not None:
            hits |= self.by_text.get(normalize(str(value)), set())
        return hits
