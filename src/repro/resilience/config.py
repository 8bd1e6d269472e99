"""Resilience knobs: retries, deadlines, breakers and fault injection.

``REPRO_FAULT_RATE`` arms the seeded fault injector for the whole
process (see :mod:`repro.resilience.faults`); the chaos CI leg runs the
test suite that way, with fast retries.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class ResilienceConfig(Knobs):
    """Knobs of retries, deadlines, breakers and fault injection."""

    retry_max = Knob("REPRO_RETRY_MAX", 3, "attempts per invocation (first try + retries)")
    retry_base_ms = Knob("REPRO_RETRY_BASE_MS", 1.0, "backoff before the first retry, ms")
    deadline_ms = Knob("REPRO_DEADLINE_MS", 2000.0, "per-invocation budget (all attempts + backoff), ms")
    breaker_threshold = Knob("REPRO_BREAKER_THRESHOLD", 8, "backend failures in a row that open a breaker")
    breaker_cooldown_ms = Knob("REPRO_BREAKER_COOLDOWN_MS", 50.0, "how long an open breaker rejects calls")
    seed = Knob("REPRO_FAULT_SEED", 20090104, "seed of fault schedules and backoff jitter")
    fault_rate = Knob("REPRO_FAULT_RATE", 0.0, "injected transient-failure probability per call")
    fault_latency_ms = Knob("REPRO_FAULT_LATENCY_MS", 0.0, "injected latency per call, ms")


#: The process-wide resilience configuration every layer consults.
RESILIENCE = ResilienceConfig()
