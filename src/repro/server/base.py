"""The server's shared immutable base layer.

A :class:`SharedBase` owns what every tenant has in common: the frozen base
catalog (source-graph snapshots come from each tenant's own learner, but
the *relations and services* they are built over are this one registry) and
the shared cache-tier bundle. Per-tenant state — trust weights, MIRA
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

from ..cache.tiers import CacheTiers
from ..substrate.relational.catalog import Catalog


class SharedBase:
    """Frozen base catalog + shared cache tiers, forked per tenant."""

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog if catalog is not None else Catalog()
        self.catalog.freeze()
        self.tiers = CacheTiers()

    def fork_catalog(self) -> Catalog:
        """A copy-on-write tenant view of the frozen base catalog."""
        return self.catalog.fork()

    def __repr__(self) -> str:
        return f"SharedBase({self.catalog!r}, scope={self.catalog.cache_scope})"
