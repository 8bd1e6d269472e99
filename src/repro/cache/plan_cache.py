"""The shared-subplan result cache.

Stores evaluated subplan results — :class:`~repro.substrate.relational.
columns.ColumnBatch` objects — keyed on ``(plan_fingerprint,
catalog_version)``. The version component makes invalidation *precise*: any
catalog mutation — a committed source, a trust adjustment, link-example
feedback — moves the version forward, so stale entries simply stop being
addressable and age out of the LRU.

When the cache is promoted to a shared tier (the multi-tenant server),
callers additionally pass the catalog's ``cache_scope``, which is folded
into every key: sessions forked from the same frozen base share a scope
(so tenant A's evaluation is a hit for tenant B), while catalogs of
different lineage — or forks that have diverged — can never collide.

Entries are shared: batches are immutable by contract (columns are never
mutated in place), so a hit returns the stored instance as-is — no copy.
"""

from __future__ import annotations

from typing import Hashable

from ..obs import METRICS
from .lru import LRUCache

_MISSING = object()


class PlanResultCache:
    """LRU of evaluated subplan results, version-keyed (one per evaluator)."""

    def __init__(self, capacity: int = 512):
        self._lru = LRUCache(capacity, metrics_prefix="cache.plan")

    def get(self, fingerprint: Hashable, version: Hashable, *, scope: Hashable = None):
        """The cached batch for the key, or ``None``."""
        batch = self._lru.get((scope, fingerprint, version), _MISSING)
        return None if batch is _MISSING else batch

    def put(
        self, fingerprint: Hashable, version: Hashable, batch, *, scope: Hashable = None
    ) -> None:
        self._lru.put((scope, fingerprint, version), batch)
        if METRICS.enabled:
            METRICS.gauge("cache.plan.size", float(len(self._lru)))

    def clear(self) -> None:
        self._lru.clear()

    @property
    def capacity(self) -> int:
        return self._lru.capacity

    def set_capacity(self, capacity: int) -> int:
        """Rebound the underlying LRU (brownout shrink); entries trimmed."""
        trimmed = self._lru.set_capacity(capacity)
        if METRICS.enabled:
            METRICS.gauge("cache.plan.size", float(len(self._lru)))
        return trimmed

    def stats(self) -> dict[str, int]:
        return self._lru.stats()

    def __len__(self) -> int:
        return len(self._lru)
