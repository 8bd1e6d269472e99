"""The server's shared immutable base layer.

A :class:`SharedBase` owns what every tenant has in common: the frozen base
catalog (source-graph snapshots come from each tenant's own learner, but
the *relations and services* they are built over are this one registry),
the source graph discovered over it, and the shared cache-tier bundle. Per-tenant state — trust weights, MIRA
weights, workspace, drift ledger — lives in each tenant's
:class:`~repro.core.session.CopyCatSession` over a copy-on-write
:meth:`~repro.substrate.relational.catalog.Catalog.fork` of the base.

Freezing the base is what makes lock-free concurrent reads sound: after
``SharedBase`` construction, any attempt to mutate the base catalog raises,
so a suggestion batch on one thread can never observe a half-committed
paste on another — each tenant's writes go to its own fork, whose first
divergent mutation silently moves it onto a private cache scope.
"""

from __future__ import annotations

from ..analysis.concurrency.runtime import make_lock
from ..cache.tiers import CacheTiers
from ..learning.integration.associations import discover_associations
from ..learning.integration.source_graph import SourceGraph
from ..substrate.relational.catalog import Catalog


class SharedBase:
    """Frozen base catalog + shared cache tiers, forked per tenant."""

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog if catalog is not None else Catalog()
        self.catalog.freeze()
        self.tiers = CacheTiers()
        self._graph: SourceGraph | None = None
        self._graph_lock = make_lock("SharedBase._graph_lock")

    def fork_catalog(self) -> Catalog:
        """A copy-on-write tenant view of the frozen base catalog."""
        return self.catalog.fork()

    def source_graph(self) -> SourceGraph:
        """The base catalog's source graph, discovered once, on first use.

        Tenant sessions start from a copy of it (the learner's
        ``base_graph``) and extend the copy with their private sources;
        nothing writes to this one. It lives and dies with the base and is
        never part of a tenant's snapshot.
        """
        with self._graph_lock:
            if self._graph is None:
                self._graph = discover_associations(self.catalog)
            return self._graph

    def __repr__(self) -> str:
        return f"SharedBase({self.catalog!r}, scope={self.catalog.cache_scope})"
