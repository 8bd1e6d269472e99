"""Incremental evaluation and caching for the suggestion pipeline.

The paper's interactivity promise (Section 2: ranked auto-complete after
*every* paste and feedback action) means the same candidate queries are
re-evaluated constantly. This package supplies the layers that make those
re-evaluations cheap, in the spirit of WebRelate's and SmartTable's
candidate-result caching. They have no off switch; a cold reference run
clears them (:meth:`CacheTiers.clear`, ``Service.invalidate_cache``):

- :mod:`~repro.cache.lru` — the bounded LRU (hit/miss/evict counters,
  mirrored into :data:`repro.obs.METRICS`) backing the other layers;
- :mod:`~repro.cache.fingerprint` — structural plan fingerprints, so
  candidate plans sharing a join prefix share cached results;
- :mod:`~repro.cache.plan_cache` — the evaluator's shared-subplan result
  cache, keyed on ``(fingerprint, Catalog.version)`` for precise
  invalidation;
- :mod:`~repro.cache.tiers` — the bundle of plan, compiled-plan and
  scan memos one evaluation stack uses, private or shared across tenants.

Service-call memoization lives on :class:`repro.substrate.services.base.
Service`; session-level suggestion reuse lives on
:class:`repro.core.session.CopyCatSession`
(``column_suggestions(refresh=True)`` forces a recompute).
"""

from __future__ import annotations

from .fingerprint import linker_token, plan_fingerprint
from .lru import LRUCache
from .plan_cache import PlanResultCache
from .tiers import CacheTiers

__all__ = [
    "CacheTiers",
    "LRUCache",
    "PlanResultCache",
    "linker_token",
    "plan_fingerprint",
]
