"""Incremental evaluation and caching for the suggestion pipeline.

The paper's interactivity promise (Section 2: ranked auto-complete after
*every* paste and feedback action) means the same candidate queries are
re-evaluated constantly. This package supplies the four layers that make
those re-evaluations cheap, in the spirit of WebRelate's and SmartTable's
candidate-result caching:

- :mod:`~repro.cache.config` — one on/off switch per layer
  (:data:`CACHE`), env-overridable, so correctness A/B tests can compare
  cached and uncached runs;
- :mod:`~repro.cache.lru` — the bounded LRU (hit/miss/evict counters,
  mirrored into :data:`repro.obs.METRICS`) backing the other layers;
- :mod:`~repro.cache.fingerprint` — structural plan fingerprints, so
  candidate plans sharing a join prefix share cached results;
- :mod:`~repro.cache.plan_cache` — the evaluator's shared-subplan result
  cache, keyed on ``(fingerprint, Catalog.version)`` for precise
  invalidation.

Service-call memoization lives on :class:`repro.substrate.services.base.
Service` and session-level suggestion reuse on
:class:`repro.core.session.CopyCatSession`; both consult :data:`CACHE`.
"""

from __future__ import annotations

from .config import CACHE, CacheConfig
from .fingerprint import linker_token, plan_fingerprint
from .lru import LRUCache
from .plan_cache import PlanResultCache
from .tiers import CacheTiers

__all__ = [
    "CACHE",
    "CacheConfig",
    "CacheTiers",
    "LRUCache",
    "PlanResultCache",
    "cache_stats_line",
    "linker_token",
    "plan_fingerprint",
]


def cache_stats_line(metrics=None) -> str:
    """One-line summary of every cache layer's counters (``--trace`` output).

    Reads the shared metrics registry (so it reflects whatever ran while
    observability was enabled) and the config switches.
    """
    from ..obs import METRICS

    m = metrics or METRICS
    plan_hits = int(m.counter_value("cache.plan.hits"))
    plan_misses = int(m.counter_value("cache.plan.misses"))
    plan_evictions = int(m.counter_value("cache.plan.evictions"))
    service_hits = int(m.counter_value("service.cache.hits"))
    service_misses = int(m.counter_value("service.cache.misses"))
    reused = int(m.counter_value("session.suggestions_reused"))
    blocked = int(m.counter_value("cache.blocking.joins"))
    pairs_pruned = int(m.counter_value("cache.blocking.pairs_pruned"))
    types_hits = int(m.counter_value("types.recognize_memo.hits"))
    types_misses = int(m.counter_value("types.recognize_memo.misses"))
    types_evictions = int(m.counter_value("types.recognize_memo.evictions"))
    link_hits = int(m.counter_value("linking.feature_memo.hits"))
    link_misses = int(m.counter_value("linking.feature_memo.misses"))
    link_evictions = int(m.counter_value("linking.feature_memo.evictions"))
    off = [layer for layer in CACHE.LAYERS if not getattr(CACHE, layer)]
    line = (
        f"cache: plan {plan_hits}h/{plan_misses}m/{plan_evictions}e · "
        f"service {service_hits}h/{service_misses}m · "
        f"suggestions reused {reused} · "
        f"blocking {blocked} joins ({pairs_pruned} pairs pruned) · "
        f"types {types_hits}h/{types_misses}m/{types_evictions}e · "
        f"link features {link_hits}h/{link_misses}m/{link_evictions}e"
    )
    if off:
        line += " · disabled: " + ",".join(off)
    return line
