"""Integration queries: from source-graph trees to executable plans.

A Steiner tree (or an incrementally extended query) is a *skeleton*: which
sources participate and through which associations. This module compiles a
skeleton into a relational plan: join edges become equijoins on the
conjunction of their conditions, service edges become dependent joins, and
record-link edges become approximate joins with a (possibly learned) linker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ...errors import GraphError, IntegrationError
from ...substrate.relational.algebra import (
    DependentJoin,
    Join,
    Plan,
    RecordLinkJoin,
    RowLinker,
    Scan,
)
from ...substrate.relational.catalog import Catalog
from ...substrate.relational.schema import Schema
from ..integration.source_graph import Association, SourceGraph
from ..integration.steiner import SteinerTree

#: Builds a default linker for a record-link edge's condition field pairs.
LinkerFactory = Callable[[Association], RowLinker]


def _default_linker_factory(edge: Association) -> RowLinker:
    from ...linking.linker import LearnedLinker
    from ...linking.similarity import FieldPair

    pairs = [FieldPair(left, right) for left, right in edge.conditions]
    return LearnedLinker(pairs)


@dataclass
class IntegrationQuery:
    """A ranked candidate query: skeleton + compiled plan + cost."""

    nodes: frozenset[str]
    edges: tuple[Association, ...]
    plan: Plan
    cost: float
    root: str

    @property
    def features(self) -> frozenset[str]:
        return frozenset(edge.key for edge in self.edges)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.plan.output_schema(catalog)

    def describe(self) -> str:
        hops = " ; ".join(edge.key for edge in self.edges) or "(single source)"
        return f"[{self.cost:.2f}] {self.root}: {hops}"

    def __str__(self) -> str:
        return self.describe()


def compile_tree(
    tree: SteinerTree,
    catalog: Catalog,
    graph: SourceGraph,
    root: str | None = None,
    linker_factory: LinkerFactory | None = None,
    link_threshold: float = 0.25,
) -> IntegrationQuery:
    """Compile a Steiner tree into an executable plan.

    The root must be a base relation (services cannot be scanned); by
    default the lexicographically first non-service node is chosen.
    Attachment is a worklist: repeatedly attach any remaining tree edge
    whose already-attached endpoint can supply what the new endpoint needs.
    """
    linker_factory = linker_factory or _default_linker_factory
    non_services = sorted(
        name for name in tree.nodes if not graph.node(name).is_service
    )
    if root is None:
        if not non_services:
            raise IntegrationError(
                "cannot compile a tree containing only services"
            )
        root = non_services[0]
    elif root not in tree.nodes:
        raise IntegrationError(f"root {root!r} is not in the tree")
    if graph.node(root).is_service:
        raise IntegrationError(f"root {root!r} is a service; roots must be relations")

    plan: Plan = Scan(root)
    attached: set[str] = {root}
    remaining = list(tree.edges)

    while remaining:
        progressed = False
        for edge in list(remaining):
            extended = _try_attach(plan, edge, attached, catalog, graph, linker_factory, link_threshold)
            if extended is not None:
                plan = extended
                remaining.remove(edge)
                progressed = True
        if not progressed:
            stuck = ", ".join(edge.key for edge in remaining)
            raise IntegrationError(
                f"cannot orient tree edges into a plan (stuck on: {stuck})"
            )
    return IntegrationQuery(
        nodes=tree.nodes,
        edges=tree.edges,
        plan=plan,
        cost=tree.cost,
        root=root,
    )


def extend_query(
    query: IntegrationQuery,
    edge: Association,
    catalog: Catalog,
    graph: SourceGraph,
    linker_factory: LinkerFactory | None = None,
    link_threshold: float = 0.25,
    schema: Schema | None = None,
) -> IntegrationQuery:
    """Attach one more edge/node to an existing query (column completion).

    *schema* is the query's output schema, when the caller already has it.
    """
    linker_factory = linker_factory or _default_linker_factory
    attached = set(query.nodes)
    extended = _try_attach(
        query.plan, edge, attached, catalog, graph, linker_factory, link_threshold, schema
    )
    if extended is None:
        raise IntegrationError(f"edge {edge.key} cannot extend query {query.describe()}")
    return IntegrationQuery(
        nodes=frozenset(attached),
        edges=query.edges + (edge,),
        plan=extended,
        cost=query.cost + graph.cost(edge),
        root=query.root,
    )


def _try_attach(
    plan: Plan,
    edge: Association,
    attached: set[str],
    catalog: Catalog,
    graph: SourceGraph,
    linker_factory: LinkerFactory,
    link_threshold: float,
    schema: Schema | None = None,
) -> Plan | None:
    """Attach *edge* to *plan* if possible; mutates *attached* on success.

    *schema* is *plan*'s output schema, derived here when not given.
    """
    left_in = edge.left in attached
    right_in = edge.right in attached
    if left_in == right_in:  # both in (cycle) or both out (not yet reachable)
        return None
    if schema is None:
        schema = plan.output_schema(catalog)
    new_node = edge.right if left_in else edge.left

    if edge.kind == "service":
        # Conditions are (provider_attr, service_input); only the
        # provider→service direction is executable.
        if new_node != edge.right:
            return None  # would need to scan the service: impossible
        provider_attrs = [provider for provider, _ in edge.conditions]
        if any(attr not in schema for attr in provider_attrs):
            return None
        input_map = tuple(
            (service_input, provider_attr)
            for provider_attr, service_input in edge.conditions
        )
        attached.add(new_node)
        return DependentJoin(child=plan, service=edge.right, input_map=input_map)

    if graph.node(new_node).is_service:
        return None  # join/record-link edges cannot introduce a service

    if edge.kind in ("join", "fk"):
        if left_in:
            conditions = [(l, r) for l, r in edge.conditions]
        else:
            conditions = [(r, l) for l, r in edge.conditions]
        if any(l not in schema for l, _ in conditions):
            return None
        attached.add(new_node)
        return Join(left=plan, right=Scan(new_node), conditions=tuple(conditions))

    if edge.kind in ("record-link", "matcher"):
        if left_in:
            oriented = edge
        else:
            oriented = Association(
                left=edge.right,
                right=edge.left,
                kind=edge.kind,
                conditions=tuple((r, l) for l, r in edge.conditions),
                confidence=edge.confidence,
            )
        if any(l not in schema for l, _ in oriented.conditions):
            return None
        attached.add(new_node)
        return RecordLinkJoin(
            left=plan,
            right=Scan(new_node),
            linker=linker_factory(oriented),
            threshold=link_threshold,
        )

    raise GraphError(f"unknown edge kind {edge.kind!r}")
