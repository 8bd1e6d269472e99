"""The source graph (Figure 4).

Section 4: "this learner maintains a *source graph*, in which nodes describe
the schemas of data sources and ... *services* ... Edges describe possible
means of linking data from one source to another, e.g., by joining or by
passing parameters to a dependent source like a Web service. Edges receive
*weights* defining how relevant they are to the integration operation being
performed; the weights are typically pre-initialized to a default value and
then adjusted through learning."

We use *costs* (lower = more relevant), matching the ``c_i`` annotations of
Figure 4 and the additive BLINKS-style model of Section 4.2. Edge weights
live in the graph's ``weights`` mapping, keyed by each edge's stable key —
the MIRA learner mutates exactly that mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ...errors import GraphError
from ...substrate.relational.catalog import Catalog
from ...substrate.relational.schema import Schema

#: Association kinds and their default costs. The defaults sit below the
#: relevance threshold so fresh edges are eligible for suggestion (Section
#: 4.1: "a default value that exceeds the threshold necessary for the edge to
#: be suggested" — with costs, *below* the cutoff).
DEFAULT_COSTS = {
    "join": 1.0,
    "fk": 0.8,
    "service": 1.0,
    "record-link": 1.5,
    "matcher": 1.8,
}


@dataclass(frozen=True)
class Association:
    """An edge: a way to connect two sources.

    ``conditions`` are (left_attr, right_attr) pairs — for ``join``/``fk``/
    ``record-link`` they are the equality (or approximate-match) predicates;
    for ``service`` edges, ``left`` is the *provider* source, ``right`` is
    the service, and each pair maps a provider attribute to the service
    input it feeds.
    """

    left: str
    right: str
    kind: str
    conditions: tuple[tuple[str, str], ...]
    confidence: float = 1.0   # e.g. a schema matcher's confidence
    #: Stable feature key: this is the MIRA feature for the edge. Derived
    #: from the fields above once, at construction.
    key: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in DEFAULT_COSTS:
            raise GraphError(f"unknown association kind {self.kind!r}")
        conditions = tuple(tuple(c) for c in self.conditions)
        object.__setattr__(self, "conditions", conditions)
        conds = ",".join(f"{a}={b}" for a, b in conditions)
        object.__setattr__(self, "key", f"{self.left}--{self.right}[{self.kind}:{conds}]")

    def other(self, source: str) -> str:
        if source == self.left:
            return self.right
        if source == self.right:
            return self.left
        raise GraphError(f"{source!r} is not an endpoint of {self.key}")

    def touches(self, source: str) -> bool:
        return source in (self.left, self.right)

    def default_cost(self) -> float:
        base = DEFAULT_COSTS[self.kind]
        if self.kind == "matcher":
            # Uncertain matcher edges: cost grows as confidence shrinks
            # ("initialized with an edge weight derived from the schema
            # matcher's confidence score", Section 4.1).
            return base + (1.0 - self.confidence)
        return base

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class SourceNode:
    """A node: a source (relation) or service with its schema."""

    name: str
    schema: Schema
    is_service: bool
    inputs: tuple[str, ...] = ()    # binding-restricted attributes
    invoke_cost: float = 1.0        # the service's declared invocation cost

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(n for n in self.schema.names if n not in self.inputs)


class SourceGraph:
    """Nodes, association edges, and the learned weight vector."""

    def __init__(self) -> None:
        self._nodes: dict[str, SourceNode] = {}
        self._edges: dict[str, Association] = {}
        self._adjacency: dict[str, list[str]] = {}
        self.weights: dict[str, float] = {}

    # -- construction ------------------------------------------------------------
    def add_node(self, node: SourceNode) -> SourceNode:
        self._nodes[node.name] = node
        self._adjacency.setdefault(node.name, [])
        return node

    def add_edge(self, edge: Association, cost: float | None = None) -> Association:
        """Add *edge*; a key that still has a weight keeps it, a new key
        starts at *cost* (the edge's default cost when ``None``)."""
        for endpoint in (edge.left, edge.right):
            if endpoint not in self._nodes:
                raise GraphError(f"edge endpoint {endpoint!r} is not a node")
        if edge.left == edge.right:
            raise GraphError(f"self-loop on {edge.left!r}")
        key = edge.key
        if key in self._edges:
            return self._edges[key]
        self._edges[key] = edge
        self._adjacency[edge.left].append(key)
        self._adjacency[edge.right].append(key)
        self.weights.setdefault(key, cost if cost is not None else edge.default_cost())
        return edge

    def remove_edge(self, key: str) -> None:
        """Drop one edge. Its weight stays until :meth:`prune_weights`."""
        edge = self._edges.pop(key)
        self._adjacency[edge.left].remove(key)
        self._adjacency[edge.right].remove(key)

    def remove_node(self, name: str) -> None:
        """Drop a node and every edge touching it. The edges' weights stay
        until :meth:`prune_weights`, so an edge added back under the same
        key keeps what it had learned."""
        for key in self._adjacency.pop(name):
            edge = self._edges.pop(key)
            self._adjacency[edge.other(name)].remove(key)
        del self._nodes[name]

    def prune_weights(self) -> None:
        """Drop every weight whose key is not an edge of the graph."""
        # Every edge has a weight, so equal sizes mean equal key sets.
        if len(self.weights) != len(self._edges):
            for key in [key for key in self.weights if key not in self._edges]:
                del self.weights[key]

    def sort_edges_of(self, source: str, order: Callable[[Association], Any]) -> None:
        """Stably reorder what :meth:`edges_of` returns for *source*."""
        edges = self._edges
        self._adjacency[source].sort(key=lambda key: order(edges[key]))

    def copy(self) -> "SourceGraph":
        """A graph over the same (frozen) nodes and edges with its own
        adjacency lists and weights: changing one leaves the other as it was."""
        clone = SourceGraph()
        clone._nodes = dict(self._nodes)
        clone._edges = dict(self._edges)
        clone._adjacency = {name: list(keys) for name, keys in self._adjacency.items()}
        clone.weights = dict(self.weights)
        return clone

    @staticmethod
    def node_from_catalog(catalog: Catalog, name: str) -> SourceNode:
        if catalog.is_service(name):
            service = catalog.service(name)
            return SourceNode(
                name=name,
                schema=service.schema,
                is_service=True,
                inputs=service.input_names,
                invoke_cost=service.cost,
            )
        return SourceNode(name=name, schema=catalog.schema(name), is_service=False)

    # -- access --------------------------------------------------------------------
    def node(self, name: str) -> SourceNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> list[SourceNode]:
        return [self._nodes[name] for name in sorted(self._nodes)]

    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def edges(self) -> list[Association]:
        return [self._edges[key] for key in sorted(self._edges)]

    def edge(self, key: str) -> Association:
        try:
            return self._edges[key]
        except KeyError:
            raise GraphError(f"no edge with key {key!r}") from None

    def edges_of_kind(self, kind: str) -> list[Association]:
        """The edges of one kind, in the order they were added."""
        return [edge for edge in self._edges.values() if edge.kind == kind]

    def edges_of(self, source: str) -> list[Association]:
        if source not in self._adjacency:
            raise GraphError(f"no node named {source!r}")
        return [self._edges[key] for key in self._adjacency[source]]

    def cost(self, edge: Association | str) -> float:
        key = edge if isinstance(edge, str) else edge.key
        try:
            return self.weights[key]
        except KeyError:
            raise GraphError(f"edge {key!r} has no weight") from None

    def set_cost(self, edge: Association | str, cost: float) -> None:
        key = edge if isinstance(edge, str) else edge.key
        if key not in self._edges:
            raise GraphError(f"no edge with key {key!r}")
        self.weights[key] = cost

    def tree_cost(self, edges: Iterable[Association]) -> float:
        """Query cost = sum of constituent edge weights (Section 4.2)."""
        return sum(self.cost(edge) for edge in edges)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:
        return f"SourceGraph({len(self._nodes)} nodes, {len(self._edges)} edges)"

    # -- rendering ---------------------------------------------------------------
    def render(self) -> str:
        """Text rendering in the spirit of Figure 4."""
        lines = []
        for node in self.nodes():
            shape = "(service)" if node.is_service else "[source]"
            binding = f" needs({', '.join(node.inputs)})" if node.inputs else ""
            lines.append(f"{shape} {node.name}({', '.join(node.schema.names)}){binding}")
        for assoc in self.edges():
            lines.append(f"  {assoc.key}  c={self.cost(assoc):.2f}")
        return "\n".join(lines)
