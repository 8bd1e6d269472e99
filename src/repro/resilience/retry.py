"""Retry policies with exponential backoff + seeded jitter, and deadlines.

Backoff jitter draws from a :mod:`repro.util.rng`-derived stream, so a fixed
``REPRO_FAULT_SEED`` reproduces the exact delay schedule — chaos benchmarks
measure the same run twice. A :class:`Deadline` bounds one invocation's
total budget (attempts plus backoff sleeps); the resilient path refuses to
start a sleep that would overrun it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..util.rng import derive_rng, make_rng
from .config import RESILIENCE

#: backoff growth between consecutive retries.
BACKOFF_MULTIPLIER = 2.0
#: each delay is scaled by a seeded uniform draw from [1, 1 + jitter].
BACKOFF_JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts to make and how long to wait between them."""

    max_attempts: int
    base_ms: float
    multiplier: float
    jitter: float

    @classmethod
    def from_config(cls) -> "RetryPolicy":
        return cls(
            max_attempts=max(1, RESILIENCE.retry_max),
            base_ms=max(0.0, RESILIENCE.retry_base_ms),
            multiplier=BACKOFF_MULTIPLIER,
            jitter=BACKOFF_JITTER,
        )

    def backoff_ms(self, attempt: int, rng) -> float:
        """Delay before retry number *attempt* (1-based), milliseconds.

        Exponential in the attempt index, scaled by a uniform draw from
        ``[1, 1 + jitter]`` off the provided seeded stream.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = self.base_ms * self.multiplier ** (attempt - 1)
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def schedule_ms(self, seed: int, *labels: str | int) -> list[float]:
        """The full backoff schedule for one invocation, for inspection.

        Derives the same sub-stream the resilient path uses for the given
        ``labels`` (service name, invocation index), so tests can assert
        the exact delays a retried call will pay.
        """
        rng = derive_rng(make_rng(seed), *labels)
        return [self.backoff_ms(attempt, rng) for attempt in range(1, self.max_attempts)]


class Deadline:
    """A wall-clock budget for one invocation, retries included."""

    __slots__ = ("budget_ms", "_clock", "_start")

    def __init__(self, budget_ms: float, clock: Callable[[], float] = time.monotonic):
        self.budget_ms = budget_ms
        self._clock = clock
        self._start = clock()

    def elapsed_ms(self) -> float:
        return (self._clock() - self._start) * 1000.0

    def remaining_ms(self) -> float:
        return self.budget_ms - self.elapsed_ms()

    @property
    def expired(self) -> bool:
        return self.remaining_ms() <= 0.0

    def allows_delay(self, delay_ms: float) -> bool:
        """Whether sleeping *delay_ms* now would still leave budget."""
        return delay_ms < self.remaining_ms()

    def __repr__(self) -> str:
        return f"Deadline({self.remaining_ms():.1f}ms of {self.budget_ms:g}ms left)"
