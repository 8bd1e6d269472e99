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
    "linker_token",
    "plan_fingerprint",
]
