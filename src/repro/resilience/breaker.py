"""Per-service circuit breakers and health accounting.

The breaker is the classic three-state machine:

- **closed** — calls flow; consecutive backend failures are counted, and
  crossing the threshold opens the breaker;
- **open** — calls are rejected instantly (no backend hit, no retry burn)
  until the cooldown elapses;
- **half-open** — after the cooldown one *probe* invocation is let through;
  success closes the breaker, failure re-opens it and re-arms the cooldown.

A breaker's threshold and cooldown are plain attributes, fixed when it is
built (:data:`BREAKER_THRESHOLD` and :data:`BREAKER_COOLDOWN_MS` unless
given). The clock is injectable for deterministic cooldown tests.

:class:`ServiceHealth` is the long-horizon ledger the integration learner
reads: total successes/failures per service, from which a failure *rate*
feeds back into source-graph edge costs (the paper's trust-feedback
mechanism driven by operational signals).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..obs import METRICS

#: backend failures in a row that open a breaker.
BREAKER_THRESHOLD = 8
#: how long an open breaker rejects calls, ms.
BREAKER_COOLDOWN_MS = 50.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class ServiceHealth:
    """Operational counters for one service.

    ``failures`` counts *attempt*-level backend failures (including
    transients a later retry recovered); ``lookups_failed`` counts
    *invocation*-level failures — lookups that ultimately raised out of
    ``invoke`` after the whole retry budget. The trust signal uses the
    latter: a backend with 5% transient weather that retries always absorb
    is operationally fine and must not drift suggestion rankings.
    """

    successes: int = 0
    failures: int = 0
    lookups_failed: int = 0
    short_circuits: int = 0
    retries: int = 0

    @property
    def observed(self) -> int:
        """Completed invocations (succeeded or definitively failed)."""
        return self.successes + self.lookups_failed

    def failure_rate(self) -> float:
        """Fraction of invocations that failed outright, in [0, 1]."""
        total = self.observed
        return self.lookups_failed / total if total else 0.0


class CircuitBreaker:
    """Closed/open/half-open gate in front of one service's backend."""

    __slots__ = (
        "name", "threshold", "cooldown_ms", "_clock",
        "_state", "_consecutive_failures", "_opened_at", "times_opened",
    )

    def __init__(
        self,
        name: str,
        threshold: int = BREAKER_THRESHOLD,
        cooldown_ms: float = BREAKER_COOLDOWN_MS,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.name = name
        self.threshold = threshold
        self.cooldown_ms = cooldown_ms
        self._clock = clock
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.times_opened = 0

    # -- state machine ---------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now? Open→half-open on cooldown expiry."""
        if self._state == CLOSED:
            return True
        if self._state == OPEN:
            elapsed_ms = (self._clock() - self._opened_at) * 1000.0
            if elapsed_ms < self.cooldown_ms:
                return False
            self._state = HALF_OPEN  # cooldown over: admit one probe
            if METRICS.enabled:
                METRICS.inc("resilience.breaker.half_open")
            return True
        return True  # HALF_OPEN: the probe (and any racers) may proceed

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state != CLOSED:
            self._state = CLOSED
            if METRICS.enabled:
                METRICS.inc("resilience.breaker.closed")
                METRICS.inc("resilience.breaker." + self.name + ".closed")

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if self._state == HALF_OPEN or self._consecutive_failures >= self.threshold:
            self._open()

    def _open(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self.times_opened += 1
        if METRICS.enabled:
            METRICS.inc("resilience.breaker.opened")
            METRICS.inc("resilience.breaker." + self.name + ".opened")

    def reset(self) -> None:
        """Force-close and forget history (service replaced / test isolation)."""
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, {self._state}, "
            f"failures={self._consecutive_failures}/{self.threshold}, "
            f"opened x{self.times_opened})"
        )
