"""Resilience: fault injection, retry/backoff, breakers, degradation.

A production-scale CopyCat composes external services — geocoders, zipcode
resolvers, record linkers — that flake, stall, and die; its feedback loop is
supposed to learn which sources to distrust (paper Section 2.2). This
package supplies the four pieces that make the suggestion pipeline survive
unreliable backends:

- :mod:`~repro.resilience.config` — the process-wide knob set
  (:data:`RESILIENCE`): retry, deadline, breaker and fault-injection
  settings;
- :mod:`~repro.resilience.faults` — the deterministic fault-injection
  harness (:class:`FaultPolicy`, the global :data:`FAULTS` injector):
  seeded transient/persistent failures, injected latency, and flapping
  schedules, all reproducible per ``(seed, service, call index)``;
- :mod:`~repro.resilience.retry` / :mod:`~repro.resilience.breaker` — the
  resilient invocation path's building blocks: exponential backoff with
  seeded jitter, per-invocation deadline budgets, and per-service
  closed/open/half-open circuit breakers with health ledgers;
- :mod:`~repro.resilience.degrade` — the graceful-degradation records the
  evaluator attaches to partial results.

The resilient invocation path itself lives on
:class:`repro.substrate.services.base.Service`; degradation threading in
:mod:`repro.substrate.relational.evaluator` and rank penalties in
:mod:`repro.core.autocomplete`. Everything counts into
:data:`repro.obs.METRICS` and shows up in ``python -m repro --trace``.
"""

from __future__ import annotations

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, ServiceHealth
from .config import RESILIENCE, ResilienceConfig
from .degrade import DEGRADED_PREFIX, Degradation, degraded_source, is_degraded_source
from .faults import FAULTS, FaultInjector, FaultPolicy, FaultSpec
from .retry import Deadline, RetryPolicy

__all__ = [
    "CLOSED",
    "DEGRADED_PREFIX",
    "Deadline",
    "Degradation",
    "FAULTS",
    "FaultInjector",
    "FaultPolicy",
    "FaultSpec",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "RESILIENCE",
    "ResilienceConfig",
    "RetryPolicy",
    "ServiceHealth",
    "degraded_source",
    "is_degraded_source",
]
