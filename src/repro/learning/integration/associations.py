"""Association discovery: which edges belong in the source graph.

Section 4.1: "In the current system we add to the source graph edges
representing joins based on (1) common attribute names and data types,
(2) known links or foreign keys." Semantic types "constrain the possible
edges to add, by limiting fields to match over one or more semantic types".
Services additionally get edges from any source whose attributes can cover
their input bindings (the Figure 4 ``Zip Codes`` pattern), and sources with
name-like fields but no shared attribute get record-link edges.

``use_semantic_types=False`` reproduces the unconstrained condition for the
A-2 ablation: attribute pairs match on names alone and services accept any
injective attribute assignment, which bloats the candidate edge set.
"""

from __future__ import annotations

from functools import partial
from itertools import permutations

from ...substrate.relational.catalog import Catalog
from ...substrate.relational.schema import ANY, Schema, SemanticType
from .source_graph import Association, DEFAULT_COSTS, SourceGraph, SourceNode

#: Semantic types whose values identify real-world entities loosely enough
#: that approximate matching (record linking) is meaningful.
LINKABLE_TYPES = ("PR-Name", "PR-Place", "PR-Street")


def types_compatible(a: SemanticType, b: SemanticType) -> bool:
    """Two attribute types can join: equal, related, or either unknown."""
    if a.name == ANY.name or b.name == ANY.name:
        return True
    return a.is_a(b) or b.is_a(a)


def _shared_join_conditions(
    left: Schema, right: Schema, use_semantic_types: bool
) -> list[tuple[str, str]]:
    """The conjunction of all common-attribute equality predicates."""
    conditions = []
    for attr in left:
        if attr.name not in right:
            continue
        other = right.attribute(attr.name)
        if use_semantic_types and not types_compatible(attr.semantic_type, other.semantic_type):
            continue
        conditions.append((attr.name, attr.name))
    return conditions


def _service_input_mappings(
    provider: SourceNode, service: SourceNode, use_semantic_types: bool
) -> list[tuple[tuple[str, str], ...]]:
    """Ways to feed the service's inputs from the provider's attributes.

    Each mapping is a tuple of (provider_attr, service_input) pairs covering
    *every* service input. With semantic types, each input takes the
    best-matching provider attribute (name match first, then type match) —
    at most one mapping. Without, all injective assignments are candidates.
    """
    provider_names = [
        name for name in provider.schema.names if name not in provider.inputs
    ]
    inputs = list(service.inputs)
    if not inputs or len(provider_names) < len(inputs):
        return []

    if use_semantic_types:
        mapping: list[tuple[str, str]] = []
        used: set[str] = set()
        for service_input in inputs:
            input_attr = service.schema.attribute(service_input)
            # Pass 1: same name; pass 2: compatible non-ANY semantic type.
            chosen = None
            for name in provider_names:
                if name in used:
                    continue
                if name.lower() == service_input.lower():
                    chosen = name
                    break
            if chosen is None and input_attr.semantic_type.name != ANY.name:
                for name in provider_names:
                    if name in used:
                        continue
                    provider_attr = provider.schema.attribute(name)
                    if provider_attr.semantic_type.name == ANY.name:
                        continue
                    if types_compatible(provider_attr.semantic_type, input_attr.semantic_type):
                        chosen = name
                        break
            if chosen is None:
                return []
            used.add(chosen)
            mapping.append((chosen, service_input))
        return [tuple(mapping)]

    # Unconstrained: every injective assignment of inputs to attributes.
    mappings = []
    for assignment in permutations(provider_names, len(inputs)):
        mappings.append(tuple(zip(assignment, inputs)))
    return mappings


def _record_link_conditions(
    left: Schema, right: Schema
) -> list[tuple[str, str]]:
    """Pairs of linkable-typed attributes with *different* names.

    Same-name pairs are already join edges; record-link edges cover the
    Example-1 case (website ``Name`` vs spreadsheet ``Shelter``).
    """
    name_like = {"PR-Name", "PR-Place"}
    candidates: list[tuple[int, str, str]] = []
    for attr in left:
        if attr.semantic_type.name not in LINKABLE_TYPES:
            continue
        for other in right:
            if other.name == attr.name:
                continue
            if other.semantic_type.name == attr.semantic_type.name:
                candidates.append((0, attr.name, other.name))
            elif (
                # Person/organization names are routinely mistyped for each
                # other; cross-type linking within the name-like group is a
                # fallback when no same-type partner exists (pairing one
                # field against several dilutes the similarity signal).
                attr.semantic_type.name in name_like
                and other.semantic_type.name in name_like
            ):
                candidates.append((1, attr.name, other.name))
    # Greedy one-to-one matching, same-type pairs first: each attribute
    # participates in at most one condition.
    candidates.sort()
    used_left: set[str] = set()
    used_right: set[str] = set()
    conditions = []
    for _, left_name, right_name in candidates:
        if left_name in used_left or right_name in used_right:
            continue
        used_left.add(left_name)
        used_right.add(right_name)
        conditions.append((left_name, right_name))
    return conditions


def discover_associations(
    catalog: Catalog,
    use_semantic_types: bool = True,
    include_record_links: bool = True,
    max_service_mappings: int = 6,
    graph: SourceGraph | None = None,
) -> SourceGraph:
    """Bring *graph* (a new, empty one by default) up to the catalog's contents.

    The graph is extended, not rediscovered. A pair of nodes is evaluated
    only when one of the two is new or differs from the graph's node of
    that name; every other pair keeps its edges, and nodes the catalog no
    longer has leave with theirs. An edge is a pure function of its two
    nodes and the discovery flags, so the result is the graph an empty one
    would grow into: the same nodes and edges, and each node's
    :meth:`~SourceGraph.edges_of` in discovery order (pairs over sorted
    names, then foreign keys). An edge whose key survives keeps its weight;
    a new key starts at its default cost. Foreign-key edges come from
    catalog metadata, not from the nodes, so they are re-read every time.
    """
    graph = graph if graph is not None else SourceGraph()
    names = catalog.source_names()
    present = set(names)
    fresh: list[SourceNode] = []
    for name in names:
        node = SourceGraph.node_from_catalog(catalog, name)
        if not graph.has_node(name) or graph.node(name) != node:
            fresh.append(node)
    for name in graph.node_names():
        if name not in present:
            graph.remove_node(name)
    for node in fresh:
        if graph.has_node(node.name):
            graph.remove_node(node.name)
        graph.add_node(node)

    # Only pairs that touch a fresh node, each once.
    fresh_names = {node.name for node in fresh}
    reordered = set(fresh_names)
    nodes = graph.nodes()
    for node in fresh:
        for other in nodes:
            if other.name == node.name or (other.name in fresh_names and other.name < node.name):
                continue
            left, right = (node, other) if node.name < other.name else (other, node)
            before = graph.n_edges
            _connect(graph, left, right, use_semantic_types, include_record_links,
                     max_service_mappings)
            if graph.n_edges != before:
                reordered.add(other.name)

    # Known links / foreign keys from catalog metadata.
    links = [
        Association(left=name, right=other_source, kind="fk", conditions=((attr, other_attr),))
        for name in names
        for attr, (other_source, other_attr) in catalog.metadata(name).foreign_keys.items()
        if other_source in present
    ]
    held = graph.edges_of_kind("fk")
    if [edge.key for edge in held] != [edge.key for edge in links]:
        for edge in held:
            graph.remove_edge(edge.key)
        for edge in links:
            graph.add_edge(edge)

    # Pair edges appended behind a node's foreign keys or out of name
    # order move to where discovery from an empty graph puts them.
    for name in reordered:
        graph.sort_edges_of(name, partial(_discovery_order, name))
    graph.prune_weights()
    return graph


#: Within one pair, :func:`_connect` adds joins, then service edges, then
#: record links.
_PAIR_ORDER = {"join": 0, "service": 1, "record-link": 2}


def _discovery_order(source: str, edge: Association) -> tuple[int, str, int]:
    """Where *edge* sits among *source*'s edges: pairs by partner name, then
    foreign keys (a stable sort keeps the order within each)."""
    if edge.kind == "fk":
        return 1, "", 0
    return 0, edge.other(source), _PAIR_ORDER[edge.kind]


def _connect(
    graph: SourceGraph,
    left: SourceNode,
    right: SourceNode,
    use_semantic_types: bool,
    include_record_links: bool,
    max_service_mappings: int,
) -> None:
    """Add every justified edge between one pair of nodes."""
    # Join on all shared attributes (as one conjunctive edge). Service
    # *inputs* are excluded from plain joins on the service side — feeding an
    # input is a service edge, not a join.
    left_free = Schema([a for a in left.schema if a.name not in left.inputs])
    right_free = Schema([a for a in right.schema if a.name not in right.inputs])
    conditions = _shared_join_conditions(left_free, right_free, use_semantic_types)
    if conditions and not (left.is_service and right.is_service):
        graph.add_edge(
            Association(
                left=left.name,
                right=right.name,
                kind="join",
                conditions=tuple(conditions),
            )
        )

    # Service edges, both orientations.
    for provider, service in ((left, right), (right, left)):
        if not service.is_service or provider.is_service:
            continue
        mappings = _service_input_mappings(provider, service, use_semantic_types)
        for mapping in mappings[:max_service_mappings]:
            # Seed the edge weight from the service's declared invocation
            # cost, so e.g. the precise (Street, City) zip resolver outranks
            # the ambiguous city-wide zip directory by default.
            graph.add_edge(
                Association(
                    left=provider.name,
                    right=service.name,
                    kind="service",
                    conditions=mapping,
                ),
                cost=DEFAULT_COSTS["service"] * service.invoke_cost,
            )

    # Record-link edges between base relations.
    if include_record_links and not left.is_service and not right.is_service:
        if use_semantic_types:
            link_conditions = _record_link_conditions(left.schema, right.schema)
            if link_conditions:
                graph.add_edge(
                    Association(
                        left=left.name,
                        right=right.name,
                        kind="record-link",
                        conditions=tuple(link_conditions),
                    )
                )
