"""Overload protection for the session server.

The paper's premise is *interactive* integration — a paste answered at
human latencies. Under load, an unprotected dispatcher destroys exactly
that: queues grow without bound, one chatty tenant monopolizes the pool,
and abandoned requests keep burning workers long after the user gave up.
This module holds the four mechanisms the
:class:`~repro.server.manager.SessionManager` threads together:

- **admission control** — :class:`Overloaded` is the typed fail-fast
  error a submit past the per-tenant queue bound or the server-wide
  inflight watermark receives, always carrying a ``retry_after_ms``
  hint. Between the soft and hard inflight watermarks a *seeded* probabilistic ramp (:class:`ShedPolicy`) sheds early — the
  same :func:`~repro.util.rng.seed_for` draw as
  :mod:`repro.resilience.faults`, so chaos runs reproduce shed-for-shed;
- **deadline propagation** — a request's
  :class:`~repro.resilience.retry.Deadline` rides a thread-local scope
  (:func:`deadline_scope`); long evaluation loops call
  :func:`check_deadline` at cooperative checkpoints and abort with
  :class:`RequestExpired` once the budget is gone.
  :func:`shielded_deadline` masks the scope while a *durable* recorded
  action runs: the action is already on the write-ahead log, so aborting
  its body mid-way would let replay complete an action the live session
  never finished;
- **fairness** — the manager's deficit-round-robin drain (quantum in
  :data:`~repro.server.config.OVERLOAD`) bounds how long one tenant may
  hold a worker;
- **brownout** — :class:`LoadController` watches per-request latency and
  inflight pressure and, after :data:`BROWNOUT_HOLD` consecutive hot
  observations, flips the server into degraded service (suggestion-batch
  reuse, cache-tier shrink, dependent-join calls degraded through the
  resilience path), recovering with the same hysteresis.

All four are always on. The limits an operator or the storm benchmark
sets are knobs in :data:`~repro.server.config.OVERLOAD`; the rest of the
brownout tuning and the shed seed are constants below. A limit set out
of reach (``shed_soft=1.0``, ``drr_quantum=0``, ...) never
fires, which is how the storm benchmark builds its unprotected reference
leg.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_lock
from ..errors import CopyCatError
from ..obs import METRICS
from ..obs.metrics import percentile
from ..resilience.retry import Deadline
from ..util.rng import seed_for
from .config import OVERLOAD

__all__ = [
    "LEVEL_DEGRADED",
    "LEVEL_NORMAL",
    "LoadController",
    "Overloaded",
    "RequestExpired",
    "SessionError",
    "ShedPolicy",
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
#: requests in the load controller's rolling latency window.
BROWNOUT_WINDOW = 32
#: inflight fraction that counts as pressure.
BROWNOUT_PRESSURE = 0.85
#: inflight fraction below which recovery counts.
BROWNOUT_EXIT = 0.5
#: hot (or cool) observations in a row that flip the service level.
BROWNOUT_HOLD = 8
#: seed of the deterministic early-shed draws.
SHED_SEED = 20090104


class SessionError(CopyCatError):
    """Raised for session-manager lifecycle misuse (unknown/closed state)."""


class Overloaded(SessionError):
    """A submit refused by admission control; retry after ``retry_after_ms``.

    ``reason`` names which limit fired: ``"queue"`` (per-tenant dispatch
    queue full), ``"inflight"`` (server-wide watermark), ``"early"``
    (seeded pressure ramp), or
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


# -- seeded early shed -------------------------------------------------------
class ShedPolicy:
    """Deterministic probabilistic shedding between the watermarks.

    Sheds ramp linearly from probability 0 at ``shed_soft`` pressure to 1
    at the hard watermark. The decision for (tenant, admission index) is a
    pure :func:`~repro.util.rng.seed_for` draw — as in
    :mod:`repro.resilience.faults` — so a storm replayed with the same
    seed sheds the same requests.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = int(seed)

    def draw(self, tenant_id: str, index: int) -> float:
        return seed_for(self.seed, tenant_id, index) / 2**64

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
    :data:`BROWNOUT_PRESSURE` or the rolling window
    (:data:`BROWNOUT_WINDOW` requests) is full with p95 latency over
    ``OVERLOAD.brownout_p95_ms``; *cool* when pressure is under
    :data:`BROWNOUT_EXIT` and p95 is back under the threshold. Only
    :data:`BROWNOUT_HOLD` **consecutive** hot (resp. cool) observations flip
    the level — one spike never browns the server out, one fast request
    never snaps it back. The window clears on each transition so the old
    regime's latencies don't vote on the new one.
    """

    def __init__(self):
        self._lock = make_lock("LoadController._lock")
        self._window: deque[float] = deque(maxlen=BROWNOUT_WINDOW)
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
        p95_ms = OVERLOAD.brownout_p95_ms
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("LoadController._window", self)
            window = self._window
            window.append(latency_ms)
            p95 = percentile(sorted(window), 0.95)
            full = len(window) == window.maxlen
            if self.level == LEVEL_NORMAL:
                hot = pressure >= BROWNOUT_PRESSURE or (full and p95 > p95_ms)
                self._streak = self._streak + 1 if hot else 0
                if self._streak >= BROWNOUT_HOLD:
                    self.level = LEVEL_DEGRADED
                    self.entered += 1
                    self._streak = 0
                    window.clear()
                    return "enter"
            else:
                cool = pressure <= BROWNOUT_EXIT and p95 <= p95_ms
                self._streak = self._streak + 1 if cool else 0
                if self._streak >= BROWNOUT_HOLD:
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
