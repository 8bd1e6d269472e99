"""Resilience knobs: retries and fault injection.

``REPRO_FAULT_RATE`` arms the seeded fault injector for the whole
process with transient failures (see :mod:`repro.resilience.faults`); the
chaos CI leg runs the test suite that way, with fast retries. Injected
latency has no knob: a :class:`~repro.resilience.faults.FaultSpec` with
``latency_ms`` set, armed through ``FAULTS.injected``, adds it.
"""

from __future__ import annotations

from ..util.knobs import Knob, Knobs


class ResilienceConfig(Knobs):
    """Knobs of retries and fault injection."""

    retry_max = Knob("REPRO_RETRY_MAX", 3, "attempts per invocation (first try + retries)")
    retry_base_ms = Knob("REPRO_RETRY_BASE_MS", 1.0, "backoff before the first retry, ms")
    seed = Knob("REPRO_FAULT_SEED", 20090104, "seed of fault schedules and backoff jitter")
    fault_rate = Knob("REPRO_FAULT_RATE", 0.0, "injected transient-failure probability per call")


#: The process-wide resilience configuration every layer consults.
RESILIENCE = ResilienceConfig()
