"""A small LRU cache with hit/miss/evict accounting.

Backs both the evaluator's plan-result cache and per-service call
memoization. Counters are kept locally (cheap, always on, drive the
``--trace`` cache summary and per-service stats) and mirrored into the
shared :data:`~repro.obs.METRICS` registry when that is enabled.

Thread safety: every operation that touches the ordered dict or the
counters runs under one per-cache mutex, so a cache instance can be
promoted to a *shared tier* (see :mod:`repro.cache.tiers`) and consulted
by many sessions concurrently — a ``get`` reorders recency and a ``put``
may evict, both of which would corrupt an ``OrderedDict`` under a bare
race. The lock is uncontended (and therefore cheap) in the single-session
case, which keeps the pre-server behavior and stats byte-identical.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Any, Hashable

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_lock
from ..obs import METRICS

_MISSING = object()


class LRUCache:
    """Least-recently-used mapping with bounded size and stats.

    ``metrics_prefix`` names the obs counters this cache emits
    (``<prefix>.hits`` / ``.misses`` / ``.evictions``).
    """

    __slots__ = (
        "_data",
        "_lock",
        "capacity",
        "metrics_prefix",
        "hits",
        "misses",
        "evictions",
    )

    def __init__(self, capacity: int = 256, metrics_prefix: str | None = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = make_lock("LRUCache._lock")
        self.capacity = capacity
        self.metrics_prefix = metrics_prefix
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if RACECHECK.enabled:
                # a get *writes*: move_to_end reorders recency.
                TRACKER.note_access("LRUCache._data", self)
            entry = self._data.get(key, _MISSING)
            if entry is _MISSING:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        if METRICS.enabled and self.metrics_prefix:
            METRICS.inc(
                self.metrics_prefix + (".misses" if entry is _MISSING else ".hits")
            )
        return default if entry is _MISSING else entry

    def put(self, key: Hashable, value: Any) -> None:
        evicted = False
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("LRUCache._data", self)
            data = self._data
            if key in data:
                data.move_to_end(key)
            data[key] = value
            if len(data) > self.capacity:
                data.popitem(last=False)
                self.evictions += 1
                evicted = True
        if evicted and METRICS.enabled and self.metrics_prefix:
            METRICS.inc(self.metrics_prefix + ".evictions")

    def set_capacity(self, capacity: int) -> int:
        """Rebound the cache, trimming LRU-first; returns entries dropped.

        Shrinking under memory pressure (the server's brownout mode) is an
        eviction like any other: trimmed entries count in ``evictions``.
        """
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        trimmed = 0
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("LRUCache._data", self)
            self.capacity = capacity
            data = self._data
            while len(data) > capacity:
                data.popitem(last=False)
                self.evictions += 1
                trimmed += 1
        if trimmed and METRICS.enabled and self.metrics_prefix:
            METRICS.inc(self.metrics_prefix + ".evictions", trimmed)
        return trimmed

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Explicit invalidation: drop entries, keep lifetime stats."""
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("LRUCache._data", self)
            self._data.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
            }

    def __reduce__(self):
        """Pickle as an empty cache of the same capacity: a memo is derived
        state, and its lock is process-local."""
        return LRUCache, (self.capacity, self.metrics_prefix)

    def __deepcopy__(self, memo: dict) -> "LRUCache":
        """An independent cache: copied entries and counters, its own lock."""
        clone = LRUCache(self.capacity, self.metrics_prefix)
        with self._lock:
            items = list(self._data.items())
            clone.hits, clone.misses, clone.evictions = self.hits, self.misses, self.evictions
        for key, value in items:
            clone._data[copy.deepcopy(key, memo)] = copy.deepcopy(value, memo)
        return clone

    def __repr__(self) -> str:
        return (
            f"LRUCache(size={len(self._data)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
