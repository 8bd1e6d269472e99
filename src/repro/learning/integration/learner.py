"""The integration learner facade.

Section 4.2 describes its two modes:

1. **Column completions** — "it discovers promising associations (edges in
   the source graph scoring above a relevance threshold) from the current
   query's nodes to other sources" and defines a query per association.
2. **Tuple explanation** — given user-pasted tuples whose attributes span
   sources, "the learner finds the most likely explanations for the tuples
   (queries) by discovering Steiner trees connecting the data sources".

Feedback over either mode is converted into MIRA constraints on the shared
edge-weight vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ...drift.quarantine import (
    DRIFT_EVENTS_NOTE,
    QUARANTINE_NOTE,
    drift_rate,
)
from ...errors import GraphError, IntegrationError
from ...substrate.relational.catalog import Catalog
from ...util.text import normalize
from .associations import discover_associations
from .mira import MiraLearner
from .queries import IntegrationQuery, LinkerFactory, compile_tree, extend_query
from .source_graph import Association, SourceGraph
from .spcsh import spcsh_top_k_steiner
from .steiner import SteinerTree, exact_top_k_steiner

#: Above this many non-terminal nodes, fall back to SPCSH automatically.
EXACT_NODE_BUDGET = 14
#: extra edge cost per unit of a service's observed failure rate.
FAILURE_PENALTY = 2.0
#: extra edge cost per unit of a source's drift rate.
DRIFT_PENALTY = 1.0
#: flat extra edge cost for a quarantined source: above the default
#: relevance threshold (2.0), so it stops being suggested until it heals.
QUARANTINE_PENALTY = 2.5


def _moved(before: Mapping[str, float], after: Mapping[str, float]) -> int:
    """How many sources' penalty differs between two penalty maps."""
    names = before.keys() | after.keys()
    return len({name for name in names if before.get(name, 0.0) != after.get(name, 0.0)})


@dataclass
class ColumnCompletion:
    """A suggested new column-set: the edge used and the extended query."""

    edge: Association
    query: IntegrationQuery
    added_source: str
    added_attributes: tuple[str, ...]
    cost: float

    def describe(self) -> str:
        attrs = ", ".join(self.added_attributes)
        return f"[{self.cost:.2f}] add {attrs} from {self.added_source} via {self.edge.kind}"


class IntegrationLearner:
    """Maintains the source graph, ranks queries, learns from feedback."""

    def __init__(
        self,
        catalog: Catalog,
        relevance_threshold: float = 2.0,
        use_semantic_types: bool = True,
        linker_factory: LinkerFactory | None = None,
        margin: float = 0.5,
        base_graph: SourceGraph | None = None,
    ):
        """*base_graph*, when given, is the graph discovered (with the same
        flags) over the catalog this one was forked from; the learner
        extends a copy of it instead of discovering every pair again."""
        self.catalog = catalog
        self.relevance_threshold = relevance_threshold
        self.use_semantic_types = use_semantic_types
        self.linker_factory = linker_factory
        self.graph = base_graph.copy() if base_graph is not None else SourceGraph()
        self.mira = MiraLearner(
            self.graph,
            margin=margin,
            relevance_threshold=relevance_threshold,
        )
        self.refresh()

    # -- graph lifecycle ---------------------------------------------------------
    def refresh(self) -> SourceGraph:
        """Bring the source graph up to the catalog's current contents.

        The graph is extended in place (:func:`discover_associations`):
        only pairs touching a new or changed source are evaluated, so a
        commit pays for the source it adds. Learned edge weights survive:
        an edge still there after a new source import keeps whatever MIRA
        taught it.
        """
        return discover_associations(
            self.catalog, use_semantic_types=self.use_semantic_types, graph=self.graph
        )

    def absorb_service_health(self) -> int:
        """Rebuild the graph's health penalties from observed failure rates.

        The paper's trust-feedback mechanism driven by operational signals:
        every edge touching a service pays an extra cost of
        ``FAILURE_PENALTY × failure_rate``, so chronically failing services
        sink in plan ranking (and, once the penalty pushes an edge past the
        relevance threshold, stop being suggested at all). The penalty is a
        term of the edge's cost (:meth:`SourceGraph.cost`), not part of
        its learned weight: recovery (failure rate falling as successes
        accrue) lowers the cost again, and MIRA never sees it. Returns the
        number of services whose penalty moved.
        """
        penalties = {}
        for service in self.catalog.services():
            rate = service.health.failure_rate()
            if rate:
                penalties[service.name] = FAILURE_PENALTY * rate
        moved = _moved(self.graph.health, penalties)
        self.graph.health = penalties
        return moved

    def absorb_drift_events(self) -> int:
        """Rebuild the graph's drift penalties from the catalog's notes.

        The extraction-side analogue of :meth:`absorb_service_health`: every
        edge touching a drifting relation pays ``DRIFT_PENALTY × drift
        rate`` (detected drift events over resync attempts, so a healed
        drift decays as clean resyncs accrue), and an edge touching a
        *quarantined* relation pays the flat :data:`QUARANTINE_PENALTY` —
        above the default relevance threshold, so quarantined sources stop
        being suggested at all until they heal. The notes are read afresh
        each time, however they were written. Returns the number of
        relations whose penalty moved.
        """
        penalties = {}
        for name in self.catalog.relation_names():
            notes = self.catalog.metadata(name).notes
            if QUARANTINE_NOTE in notes:
                penalties[name] = QUARANTINE_PENALTY
            elif notes.get(DRIFT_EVENTS_NOTE, 0):
                penalties[name] = DRIFT_PENALTY * drift_rate(self.catalog, name)
        moved = _moved(self.graph.drift, penalties)
        self.graph.drift = penalties
        return moved

    # -- query construction ---------------------------------------------------------
    def base_query(self, source: str) -> IntegrationQuery:
        """The starting query: a single source relation (Section 4.2)."""
        tree = SteinerTree(nodes=frozenset([source]), edges=(), cost=0.0)
        return compile_tree(tree, self.catalog, self.graph, root=source,
                            linker_factory=self.linker_factory)

    def column_completions(
        self,
        query: IntegrationQuery,
        k: int = 5,
        visible_attributes: Sequence[str] | None = None,
    ) -> list[ColumnCompletion]:
        """Ranked column auto-completions extending *query*.

        ``visible_attributes`` restricts which of the current query's
        attributes may feed new edges (the user may have removed columns).
        """
        schema = query.output_schema(self.catalog)
        before = set(schema.names)
        visible = set(visible_attributes) if visible_attributes is not None else before
        completions: list[ColumnCompletion] = []
        seen_feature_sets: set[frozenset[str]] = set()
        for node in sorted(query.nodes):
            for edge in self.graph.edges_of(node):
                other = edge.other(node)
                if other in query.nodes:
                    continue
                if self.graph.cost(edge) > self.relevance_threshold:
                    continue  # below relevance: not suggested
                try:
                    extended = extend_query(
                        query, edge, self.catalog, self.graph,
                        linker_factory=self.linker_factory, schema=schema,
                    )
                except IntegrationError:
                    continue
                # The feeding attributes must still be visible in the table.
                needed = {l for l, _ in edge.conditions} if edge.left in query.nodes else {
                    r for _, r in edge.conditions
                }
                if edge.kind == "service":
                    needed = {provider for provider, _ in edge.conditions}
                if not needed <= visible:
                    continue
                if extended.features in seen_feature_sets:
                    continue
                seen_feature_sets.add(extended.features)
                after = extended.output_schema(self.catalog).names
                added = tuple(name for name in after if name not in before)
                if not added:
                    continue
                completions.append(
                    ColumnCompletion(
                        edge=edge,
                        query=extended,
                        added_source=other,
                        added_attributes=added,
                        cost=extended.cost,
                    )
                )
        completions.sort(key=lambda c: (c.cost, c.added_source))
        return completions[:k]

    def steiner_queries(
        self,
        terminals: Iterable[str],
        k: int = 3,
        mode: str = "auto",
        root: str | None = None,
    ) -> list[IntegrationQuery]:
        """Top-k queries connecting *terminals* (the pasted tuple's sources)."""
        terminal_list = sorted(set(terminals))
        extras = len(self.graph) - len(terminal_list)
        if mode == "exact" or (mode == "auto" and extras <= EXACT_NODE_BUDGET):
            trees = exact_top_k_steiner(self.graph, terminal_list, k=k)
        elif mode in ("spcsh", "auto"):
            trees = spcsh_top_k_steiner(self.graph, terminal_list, k=k)
        else:
            raise IntegrationError(f"unknown Steiner mode {mode!r}")
        queries = []
        for tree in trees:
            try:
                queries.append(
                    compile_tree(tree, self.catalog, self.graph, root=root,
                                 linker_factory=self.linker_factory)
                )
            except IntegrationError:
                continue  # tree not orientable into an executable plan
        return queries

    # -- terminal identification -------------------------------------------------------
    def identify_terminals(
        self, columns: Mapping[str, Sequence[Any]]
    ) -> dict[str, str]:
        """Map each pasted attribute to its most plausible source.

        Evidence per (attribute, source): attribute-name match in the
        source's schema, plus value containment for base relations (the
        pasted values actually occur in that source's column).
        """
        assignment: dict[str, str] = {}
        for attr_name, values in columns.items():
            best_source, best_score = None, 0.0
            normalized = [normalize(str(v)) for v in values if v is not None]
            for source in self.graph.node_names():
                node = self.graph.node(source)
                if attr_name not in node.schema:
                    continue
                score = 1.0
                if not node.is_service:
                    relation = self.catalog.relation(source)
                    column = {normalize(str(v)) for v in relation.column(attr_name)}
                    if normalized:
                        contained = sum(1 for v in normalized if v in column)
                        score += 2.0 * contained / len(normalized)
                else:
                    # services never *originate* data; weak evidence only
                    score -= 0.5
                if score > best_score:
                    best_source, best_score = source, score
            if best_source is None:
                raise GraphError(
                    f"no source in the graph carries attribute {attr_name!r}"
                )
            assignment[attr_name] = best_source
        return assignment

    def explain_tuples(
        self, columns: Mapping[str, Sequence[Any]], k: int = 3
    ) -> list[IntegrationQuery]:
        """Steiner-mode entry point: pasted columns → ranked queries."""
        terminals = set(self.identify_terminals(columns).values())
        return self.steiner_queries(terminals, k=k)

    # -- feedback --------------------------------------------------------------------
    def accept_query(
        self, accepted: IntegrationQuery, alternatives: Iterable[IntegrationQuery] = ()
    ) -> int:
        updates = self.mira.accept(
            accepted.features, [alt.features for alt in alternatives]
        )
        return updates

    def reject_query(
        self, rejected: IntegrationQuery, better: Iterable[IntegrationQuery] = ()
    ) -> int:
        return self.mira.reject(rejected.features, [b.features for b in better])

    def requery_cost(self, query: IntegrationQuery) -> float:
        """Query cost under the *current* (post-feedback) weights."""
        return self.graph.tree_cost(query.edges)
