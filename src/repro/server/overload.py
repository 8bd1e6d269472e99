"""Overload protection for the session server.

The paper's premise is *interactive* integration — a paste answered at
human latencies. Under load, an unprotected dispatcher destroys exactly
that: queues grow without bound, one chatty tenant monopolizes the pool,
and abandoned requests keep burning workers long after the user gave up.
This module holds the four mechanisms the
:class:`~repro.server.manager.SessionManager` threads together:

- **admission control** — :class:`Overloaded` is the typed fail-fast
  error a submit past the per-tenant queue bound, the server-wide
  inflight watermark, or the token bucket receives, always carrying a
  ``retry_after_ms`` hint. Between the soft and hard inflight watermarks
  a *seeded* probabilistic ramp (:class:`ShedPolicy`) sheds early — the
  same sha256 draw idiom as :mod:`repro.resilience.faults`, so chaos
  runs reproduce shed-for-shed;
- **deadline propagation** — a request's
  :class:`~repro.resilience.retry.Deadline` rides a thread-local scope
  (:func:`deadline_scope`); long evaluation loops call
  :func:`check_deadline` at cooperative checkpoints and abort with
  :class:`RequestExpired` once the budget is gone.
  :func:`shielded_deadline` masks the scope while a *durable* recorded
  action runs: the action is already on the write-ahead log, so aborting
  its body mid-way would let replay complete an action the live session
  never finished;
- **fairness** — :class:`TokenBucket` rate-limits each tenant's
  admissions; the manager's deficit-round-robin drain (quantum in
  :data:`~repro.server.config.OVERLOAD`) bounds how long one tenant may
  hold a worker;
- **brownout** — :class:`LoadController` watches per-request latency and
  inflight pressure and, after ``brownout_hold`` consecutive hot
  observations, flips the server into degraded service (suggestion-batch
  reuse, cache-tier shrink, dependent-join calls degraded through the
  resilience path), recovering with the same hysteresis.

All four are always on. Each limit is a knob in
:data:`~repro.server.config.OVERLOAD`, and a limit set out of reach
(``shed_soft=1.0``, ``rate=0.0``, ``drr_quantum=0``, ...) never fires,
which is how the storm benchmark builds its unprotected reference leg.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from contextlib import contextmanager

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_lock
from ..errors import CopyCatError
from ..obs import METRICS
from ..obs.metrics import percentile
from ..resilience.retry import Deadline
from .config import OVERLOAD

__all__ = [
    "LEVEL_DEGRADED",
    "LEVEL_NORMAL",
    "LoadController",
    "Overloaded",
    "RequestExpired",
    "SessionError",
    "ShedPolicy",
    "TokenBucket",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "shielded_deadline",
]

#: Service levels a session can run at (brownout flips between them).
LEVEL_NORMAL = "normal"
LEVEL_DEGRADED = "degraded"

#: base retry hint (ms) carried by shed and expiry errors.
RETRY_AFTER_MS = 50.0
#: divisor of every shared cache-tier capacity while browned out.
BROWNOUT_SHRINK = 4


class SessionError(CopyCatError):
    """Raised for session-manager lifecycle misuse (unknown/closed state)."""


class Overloaded(SessionError):
    """A submit refused by admission control; retry after ``retry_after_ms``.

    ``reason`` names which limit fired: ``"queue"`` (per-tenant dispatch
    queue full), ``"inflight"`` (server-wide watermark), ``"rate"``
    (token bucket empty), ``"early"`` (seeded pressure ramp), or
    ``"deadline"`` (see :class:`RequestExpired`).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        retry_after_ms: float,
        tenant: str | None = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.retry_after_ms = retry_after_ms
        self.tenant = tenant


class RequestExpired(Overloaded):
    """A request whose deadline ran out — shed at dequeue, or aborted at a
    cooperative checkpoint mid-run. ``checkpoint`` names where."""

    def __init__(
        self,
        message: str,
        *,
        checkpoint: str,
        retry_after_ms: float = 1.0,
        tenant: str | None = None,
    ):
        super().__init__(
            message, reason="deadline", retry_after_ms=retry_after_ms, tenant=tenant
        )
        self.checkpoint = checkpoint


# -- deadline propagation ----------------------------------------------------
# One ambient deadline per thread: the manager opens a scope around each
# request body, and anything the request transitively runs (evaluator,
# autocomplete) polls it without signature changes through the stack.
_TLS = threading.local()


def current_deadline() -> Deadline | None:
    """The deadline governing the current thread's request, if any."""
    return getattr(_TLS, "deadline", None)


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Install *deadline* as the thread's ambient deadline for the block."""
    previous = getattr(_TLS, "deadline", None)
    _TLS.deadline = deadline
    try:
        yield deadline
    finally:
        _TLS.deadline = previous


@contextmanager
def shielded_deadline():
    """Mask the ambient deadline for the block.

    Durable recorded actions run under this shield: the write-ahead record
    already exists when the body starts, so a mid-body abort would leave a
    log whose replay *completes* an action the live session abandoned —
    breaking replay bit-identity. The deadline re-applies (and fires) at
    the first checkpoint after the action returns.
    """
    with deadline_scope(None):
        yield


def check_deadline(checkpoint: str) -> None:
    """Cooperative cancellation point: raise once the budget is spent.

    A no-op when no deadline is in scope, so sprinkling checkpoints
    through evaluation loops costs one thread-local read on the common
    path.
    """
    deadline = getattr(_TLS, "deadline", None)
    if deadline is not None and deadline.expired:
        if METRICS.enabled:
            METRICS.inc("overload.canceled")
        raise RequestExpired(
            f"deadline of {deadline.budget_ms:g}ms expired at {checkpoint} "
            f"({deadline.elapsed_ms():.1f}ms elapsed)",
            checkpoint=checkpoint,
            retry_after_ms=RETRY_AFTER_MS,
        )


# -- per-tenant fairness -----------------------------------------------------
class TokenBucket:
    """A per-tenant admission rate limiter on the manager's clock.

    ``rate`` tokens/second refill toward ``burst``; an admission spends
    one. ``rate <= 0`` admits everything (the default — the bucket is for
    operators who want hard per-tenant ceilings).
    """

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int, now: float):
        self.rate = float(rate)
        self.burst = float(max(1, burst))
        self.tokens = self.burst
        self.stamp = now

    def built_for(self, rate: float, burst: int) -> bool:
        """True when the bucket was built from these knob values."""
        return self.rate == rate and self.burst == max(1, burst)

    def try_acquire(self, now: float) -> bool:
        if self.rate <= 0:
            return True
        self.tokens = min(self.burst, self.tokens + max(0.0, now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after_ms(self) -> float:
        """How long until one token refills (the shed error's hint)."""
        if self.rate <= 0:
            return 0.0
        return max(1.0, (1.0 - self.tokens) / self.rate * 1000.0)


# -- seeded early shed -------------------------------------------------------
class ShedPolicy:
    """Deterministic probabilistic shedding between the watermarks.

    Sheds ramp linearly from probability 0 at ``shed_soft`` pressure to 1
    at the hard watermark. The decision for (tenant, admission index) is a
    pure sha256 draw — the idiom :mod:`repro.resilience.faults` uses — so
    a storm replayed with the same seed sheds the same requests.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def draw(self, tenant_id: str, index: int) -> float:
        token = f"{self.seed}:{tenant_id}:{index}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def should_shed(self, tenant_id: str, index: int, pressure: float, soft: float) -> bool:
        if soft >= 1.0 or pressure < soft:
            return False
        probability = min(1.0, (pressure - soft) / (1.0 - soft))
        return self.draw(tenant_id, index) < probability


# -- brownout ----------------------------------------------------------------
class LoadController:
    """Watches load and flips service level with hysteresis.

    Fed one ``(latency_ms, pressure)`` observation per finished request.
    An observation is *hot* when inflight pressure exceeds
    ``brownout_pressure`` or the rolling window is full with p95 latency
    over ``brownout_p95_ms``; *cool* when pressure is under
    ``brownout_exit`` and p95 is back under the threshold. Only
    ``brownout_hold`` **consecutive** hot (resp. cool) observations flip
    the level — one spike never browns the server out, one fast request
    never snaps it back. The window clears on each transition so the old
    regime's latencies don't vote on the new one.
    """

    def __init__(self):
        self._lock = make_lock("LoadController._lock")
        self._window: deque[float] = deque(maxlen=max(4, OVERLOAD.brownout_window))
        self._streak = 0
        self.level = LEVEL_NORMAL
        self.entered = 0
        self.exited = 0

    def p95_ms(self) -> float:
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("LoadController._window", self, write=False)
            if not self._window:
                return 0.0
            return percentile(sorted(self._window), 0.95)

    def observe(self, latency_ms: float, pressure: float) -> str | None:
        """Fold one observation in; ``"enter"``/``"exit"`` on a transition."""
        cfg = OVERLOAD
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("LoadController._window", self)
            window = self._window
            window.append(latency_ms)
            p95 = percentile(sorted(window), 0.95)
            full = len(window) == window.maxlen
            if self.level == LEVEL_NORMAL:
                hot = pressure >= cfg.brownout_pressure or (
                    full and p95 > cfg.brownout_p95_ms
                )
                self._streak = self._streak + 1 if hot else 0
                if self._streak >= max(1, cfg.brownout_hold):
                    self.level = LEVEL_DEGRADED
                    self.entered += 1
                    self._streak = 0
                    window.clear()
                    return "enter"
            else:
                cool = pressure <= cfg.brownout_exit and p95 <= cfg.brownout_p95_ms
                self._streak = self._streak + 1 if cool else 0
                if self._streak >= max(1, cfg.brownout_hold):
                    self.level = LEVEL_NORMAL
                    self.exited += 1
                    self._streak = 0
                    window.clear()
                    return "exit"
        return None

    def __repr__(self) -> str:
        return (
            f"LoadController({self.level}, entered={self.entered}, "
            f"exited={self.exited}, p95={self.p95_ms():.1f}ms)"
        )
