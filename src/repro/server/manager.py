"""The multi-tenant session manager.

One :class:`SessionManager` serves many independent user sessions
concurrently on a bounded worker pool:

- **registry + lifecycle** — sessions are created on first use, touched on
  every request (LRU order), evicted when the registry exceeds
  ``SERVER.max_sessions``, and expired by :meth:`evict_idle` once idle
  longer than its TTL;
- **per-session FIFO dispatch** — requests for one tenant are serialized
  in submission order (a session is single-threaded state: workspace,
  learners), while requests for *different* tenants run
  concurrently on the pool. This is the snapshot-isolation story's other
  half: within a tenant there is no concurrency at all, and across tenants
  the only shared mutable state is the internally-locked cache tiers and
  the frozen base;
- **shared caching** — every session's evaluator consults the
  :class:`~repro.server.base.SharedBase`'s shared tier bundle, so tenant
  A's compiled plan closure or materialized join is a hit for tenant B;
- **overload protection** (:mod:`repro.server.overload`) — admission
  control sheds a submit past the per-tenant queue bound, the server-wide
  inflight watermark, or the tenant's token bucket with a typed
  :class:`~repro.server.overload.Overloaded`; ``submit(deadline_ms=...)``
  attaches a :class:`~repro.resilience.retry.Deadline` that is checked at
  dequeue (expired requests shed without running) and at cooperative
  checkpoints inside evaluation; the drain yields its worker every
  ``OVERLOAD.drr_quantum`` requests so one backlogged tenant cannot hold
  a worker hostage; and a :class:`~repro.server.overload.LoadController`
  flips sessions into brownout under sustained pressure.

Every request takes this one path. A single-session reference is a plain
:class:`~repro.core.session.CopyCatSession` over ``base.fork_catalog()``
with private tiers; an unprotected reference is this manager under
``OVERLOAD.unbounded()``, which sets every limit out of reach.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_lock
from ..core.session import CopyCatSession
from ..durability import DURABILITY, DurabilityStore, recover_session
from ..obs import METRICS
from ..resilience.retry import Deadline
from .base import SharedBase
from .config import OVERLOAD, SERVER
from .overload import (
    BROWNOUT_SHRINK,
    LEVEL_NORMAL,
    RETRY_AFTER_MS,
    SHED_SEED,
    LoadController,
    Overloaded,
    RequestExpired,
    SessionError,
    ShedPolicy,
    deadline_scope,
)

__all__ = ["SessionError", "SessionManager"]

#: Admission-shed reasons tracked per manager (and as overload.shed_*).
_SHED_REASONS = ("queue", "inflight", "early")


@dataclass
class _Request:
    """One queued dispatch: the work, its future, and admission metadata."""

    fn: Callable[[CopyCatSession], Any]
    future: "Future[Any]"
    deadline: Deadline | None = None
    enqueued: float = 0.0
    #: True while the request holds an inflight slot; released exactly once.
    tracked: bool = True


def _set_event() -> threading.Event:
    event = threading.Event()
    event.set()
    return event


@dataclass
class _Entry:
    """Registry slot: the session plus its dispatch and lifecycle state."""

    session: CopyCatSession
    created: float
    last_used: float
    tenant_id: str = ""
    lock: Any = field(default_factory=lambda: make_lock("_Entry.lock"))
    queue: deque = field(default_factory=deque)
    #: set while no drain task for this session is live on the pool.
    parked: threading.Event = field(default_factory=_set_event)
    #: the thread running a request on this session, while one does.
    running_on: int | None = None
    #: True once eviction began snapshotting: new requests go elsewhere.
    retired: bool = False
    #: set when eviction has snapshotted and detached the session.
    sealed: threading.Event = field(default_factory=threading.Event)
    #: deficit-round-robin credit for the current drain turn.
    deficit: int = 0
    #: monotonically increasing admission attempt index (seeded shed draws).
    submit_index: int = 0
    #: service level last applied to the session (brownout laziness).
    applied_level: str = LEVEL_NORMAL


class SessionManager:
    """Serves many tenant sessions concurrently over one shared base.

    *seed* is accepted for existing callers and selects nothing.
    """

    def __init__(
        self,
        base: SharedBase | None = None,
        *,
        seed: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        durability_root: Any = None,
    ):
        self.base = base if base is not None else SharedBase()
        self._clock = clock
        # Durable sessions: with a root configured (argument, or the
        # REPRO_DURABILITY_ROOT knob), every tenant session records its
        # actions write-ahead; eviction checkpoints
        # instead of dropping, and first attach after a restart recovers
        # the tenant from checkpoint + log tail.
        root = durability_root if durability_root is not None else (DURABILITY.root or None)
        self.store: DurabilityStore | None = (
            DurabilityStore(root) if root else None
        )
        self._registry: "OrderedDict[str, _Entry]" = OrderedDict()
        # Evicted entries whose snapshot has not landed yet, by tenant.
        self._retiring: dict[str, _Entry] = {}
        self._registry_lock = make_lock("SessionManager._registry_lock")
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        # Overload protection: seeded shed draws and the brownout
        # controller are per-manager (one server, one load picture).
        self._shed_policy = ShedPolicy(SHED_SEED)
        self._controller = LoadController()
        # Lifetime counters (always on; mirrored into METRICS when
        # enabled), guarded by one mutex so stats() reads are coherent
        # under concurrent workers — `+=` is not atomic across threads.
        self._counters_lock = make_lock("SessionManager._counters_lock")
        self._inflight = 0
        self.sessions_created = 0
        self.sessions_evicted = 0
        self.sessions_expired = 0
        self.sessions_checkpointed = 0
        self.requests = 0
        self.request_errors = 0
        self.requests_shed = 0
        self.requests_expired = 0
        self.requests_canceled = 0
        self.requests_stranded = 0
        self.shed_reasons = {reason: 0 for reason in _SHED_REASONS}

    # -- session lifecycle ---------------------------------------------------
    def session(self, tenant_id: str) -> CopyCatSession:
        """The tenant's session, created on first use (touches LRU order)."""
        return self._entry(tenant_id).session

    def _entry(self, tenant_id: str) -> _Entry:
        if self._closed:
            raise SessionError("session manager is shut down")
        while True:
            with self._registry_lock:
                entry = self._registry.get(tenant_id)
                if entry is not None:
                    entry.last_used = self._clock()
                    self._registry.move_to_end(tenant_id)
                    return entry
                retiring = self._retiring.get(tenant_id)
                if retiring is None:
                    entry, evicted = self._create_entry(tenant_id)  # lint: allow=CONC002,CONC004 -- recovery must stay under the registry lock (no double-replay), and one that stopped at damage snapshots before any request can append behind it; emits only leaf durability counters
                    break
            # The tenant's evicted entry is still draining into its last
            # snapshot; recovering before that lands would read a stale
            # root and race its log. From inside that entry's own request
            # (which the snapshot waits for) the entry is still the
            # tenant's session.
            with retiring.lock:
                if retiring.running_on == threading.get_ident():
                    return retiring
            retiring.sealed.wait()
        # Evict-through: persist before dropping (outside the lock —
        # checkpoint writes are file IO).
        self._checkpoint_all(evicted)
        if METRICS.enabled:
            METRICS.inc("server.sessions_created")
            if evicted:
                METRICS.inc("server.sessions_evicted", len(evicted))
            METRICS.gauge("server.sessions_active", float(len(self._registry)))
        return entry

    def _create_entry(self, tenant_id: str) -> tuple[_Entry, list[_Entry]]:
        """Register a new entry for the tenant (caller holds the registry
        lock); returns it and the LRU victims it pushed out."""
        session = CopyCatSession(
            catalog=self.base.fork_catalog(),
            cache_tiers=self.base.tiers,
            base_graph=self.base.source_graph(),
        )
        if self.store is not None:
            # Recover-on-attach: load this tenant's snapshot and replay its
            # log tail (a no-op for new tenants). Runs under the registry
            # lock so two racing first requests can never double-replay
            # one history, and a recovery that stopped at damage
            # snapshots before any request can log behind the damage.
            recover_session(session, tenant_id, self.store)
        now = self._clock()
        entry = _Entry(
            session=session,
            created=now,
            last_used=now,
            tenant_id=tenant_id,
        )
        if RACECHECK.enabled:
            TRACKER.note_access("SessionManager._registry", self)
        self._registry[tenant_id] = entry
        with self._counters_lock:
            self.sessions_created += 1
        evicted: list[_Entry] = []
        while len(self._registry) > max(1, SERVER.max_sessions):
            _, victim = self._registry.popitem(last=False)
            self._retiring[victim.tenant_id] = victim
            evicted.append(victim)
            with self._counters_lock:
                self.sessions_evicted += 1
        return entry, evicted

    def _checkpoint_through(self, entry: _Entry) -> None:
        """Snapshot an evicted session, then detach its recorder.

        The snapshot waits until the entry's drain has run every request
        queued before the eviction and parked, so it never pickles a
        session mid-request. An eviction from inside the session's own
        request cannot wait for itself; there the recorder defers the
        snapshot to the end of a running action. After detachment the
        (possibly still-referenced) session object keeps working purely
        in memory — the pre-durability eviction semantics — while the
        durable history ends cleanly at the eviction point; the next
        attach for the tenant recovers it.
        """
        try:
            session = entry.session
            recorder = session.durability
            if recorder is None or recorder.store is None:
                return
            with entry.lock:
                entry.retired = True
                own_request = entry.running_on == threading.get_ident()
            if not own_request:
                entry.parked.wait()
            recorder.seal()
            session.durability = None
            with self._counters_lock:
                self.sessions_checkpointed += 1
        finally:
            entry.sealed.set()
            with self._registry_lock:
                if self._retiring.get(entry.tenant_id) is entry:
                    del self._retiring[entry.tenant_id]

    def _checkpoint_all(self, entries: list[_Entry]) -> None:
        """Checkpoint every entry through, even past one that raises (a
        skipped entry would stay retiring and block its tenant), then
        raise the first error."""
        first: BaseException | None = None
        for entry in entries:
            try:
                self._checkpoint_through(entry)
            except BaseException as exc:  # lint: allow=REPRO003 -- the first is re-raised below
                if first is None:
                    first = exc
        if first is not None:
            raise first

    def evict(self, tenant_id: str) -> bool:
        """Evict the tenant's session (checkpointed first when durable);
        True when one existed."""
        with self._registry_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionManager._registry", self)
            entry = self._registry.pop(tenant_id, None)
            if entry is not None:
                self._retiring[tenant_id] = entry
                with self._counters_lock:
                    self.sessions_evicted += 1
        if entry is not None:
            self._checkpoint_through(entry)
            if METRICS.enabled:
                METRICS.inc("server.sessions_evicted")
                METRICS.gauge("server.sessions_active", float(len(self._registry)))
        return entry is not None

    def evict_idle(self, ttl: float = 900.0) -> list[str]:
        """Expire sessions idle longer than *ttl* seconds.

        Durable sessions are checkpointed through the expiry: idle-TTL
        pressure trims memory, never user history.
        """
        now = self._clock()
        expired: list[str] = []
        victims: list[_Entry] = []
        with self._registry_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionManager._registry", self)
            for tenant_id, entry in list(self._registry.items()):
                if now - entry.last_used > ttl:
                    del self._registry[tenant_id]
                    self._retiring[tenant_id] = entry
                    expired.append(tenant_id)
                    victims.append(entry)
                    with self._counters_lock:
                        self.sessions_expired += 1
        self._checkpoint_all(victims)
        if expired and METRICS.enabled:
            METRICS.inc("server.sessions_expired", len(expired))
            METRICS.gauge("server.sessions_active", float(len(self._registry)))
        return expired

    # -- admission control ---------------------------------------------------
    @property
    def inflight(self) -> int:
        """Admitted requests not yet finished (queued + running)."""
        with self._counters_lock:
            return self._inflight

    def queue_depths(self) -> dict[str, int]:
        """Current dispatch-queue length per tenant (introspection)."""
        with self._registry_lock:
            return {tenant: len(entry.queue) for tenant, entry in self._registry.items()}

    def _shed(self, reason: str, tenant_id: str, retry_after_ms: float, detail: str):
        with self._counters_lock:
            self.requests_shed += 1
            self.shed_reasons[reason] += 1
        if METRICS.enabled:
            METRICS.inc(f"overload.shed_{reason}")
            METRICS.inc("server.requests_shed")
        raise Overloaded(
            f"request for {tenant_id!r} shed ({reason}): {detail}",
            reason=reason,
            retry_after_ms=max(1.0, retry_after_ms),
            tenant=tenant_id,
        )

    def _admit(self, entry: _Entry) -> None:
        """Fail fast (typed, with a retry hint) instead of queueing forever."""
        cfg = OVERLOAD
        tenant_id = entry.tenant_id
        depth_limit = max(1, cfg.queue_depth)
        with entry.lock:
            entry.submit_index += 1
            index = entry.submit_index
            depth = len(entry.queue)
        if depth >= depth_limit:
            retry = RETRY_AFTER_MS * (1.0 + depth / depth_limit)
            self._shed("queue", tenant_id, retry, f"dispatch queue at {depth}/{depth_limit}")
        inflight = self.inflight
        limit = max(1, cfg.max_inflight)
        if inflight >= limit:
            self._shed(
                "inflight", tenant_id, RETRY_AFTER_MS * 2.0,
                f"server inflight at {inflight}/{limit}",
            )
        pressure = inflight / limit
        if self._shed_policy.should_shed(tenant_id, index, pressure, cfg.shed_soft):
            self._shed(
                "early", tenant_id, RETRY_AFTER_MS,
                f"seeded ramp at pressure {pressure:.2f} (soft {cfg.shed_soft:g})",
            )

    # -- dispatch ------------------------------------------------------------
    def submit(
        self,
        tenant_id: str,
        fn: Callable[[CopyCatSession], Any],
        *,
        deadline_ms: float | None = None,
    ) -> "Future[Any]":
        """Run ``fn(session)`` for the tenant; returns a Future.

        Requests for one tenant execute FIFO (a session is single-threaded
        state); requests across tenants run concurrently on the pool.

        ``deadline_ms`` starts the request's budget *now* — queue wait
        included. An expired request is shed at dequeue without running;
        one that expires mid-run aborts at the next cooperative
        checkpoint. Either way the future raises
        :class:`~repro.server.overload.RequestExpired`. A submit refused
        by admission control raises
        :class:`~repro.server.overload.Overloaded` synchronously.
        """
        entry = self._entry(tenant_id)
        deadline = (
            Deadline(deadline_ms, clock=self._clock) if deadline_ms is not None else None
        )
        future: "Future[Any]" = Future()
        self._admit(entry)
        with self._counters_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionManager._inflight", self)
            self.requests += 1
            self._inflight += 1
        if METRICS.enabled:
            METRICS.inc("server.requests")
            METRICS.gauge("overload.inflight", float(self.inflight))
        request = _Request(fn=fn, future=future, deadline=deadline, enqueued=self._clock())
        while True:
            with entry.lock:
                # A retired entry takes only its own requests' submits (its
                # drain runs them before it parks); others wait for its
                # snapshot and go to the tenant's next entry.
                if not entry.retired or entry.running_on == threading.get_ident():
                    entry.queue.append(request)
                    schedule = entry.parked.is_set()
                    if schedule:
                        entry.parked.clear()
                    break
            entry = self._entry(tenant_id)
        if schedule:
            self._schedule_drain(entry)
        return future

    def call(self, tenant_id: str, fn: Callable[[CopyCatSession], Any], **kwargs) -> Any:
        """Synchronous :meth:`submit`: dispatch and wait for the result."""
        return self.submit(tenant_id, fn, **kwargs).result()

    def _executor(self) -> ThreadPoolExecutor:
        pool = self._pool
        if pool is None:
            with self._registry_lock:
                if self._closed:
                    # A drain racing shutdown must not resurrect the pool;
                    # _schedule_drain catches this and strands the queue.
                    raise RuntimeError("session manager is shut down")
                pool = self._pool
                if pool is None:
                    pool = self._pool = ThreadPoolExecutor(
                        max_workers=max(1, SERVER.workers),
                        thread_name_prefix="repro-server",
                    )
        return pool

    def _schedule_drain(self, entry: _Entry) -> None:
        """Put a drain turn for *entry* on the pool, surviving a closing pool.

        A submit racing :meth:`shutdown` can see the executor already
        closed; the queued requests are failed right here (the caller
        would otherwise block on futures nothing will ever run).
        """
        try:
            self._executor().submit(self._drain, entry)
        except RuntimeError:
            with entry.lock:
                entry.parked.set()
            self._strand_queue(entry)

    def _drain(self, entry: _Entry) -> None:
        """Worker task: run queued requests FIFO, then park — or, with a
        positive ``drr_quantum``, yield the worker after that many requests
        and requeue itself so other tenants' drains interleave (deficit
        round-robin; the pool's FIFO makes the rotation fair)."""
        quantum = OVERLOAD.drr_quantum
        if quantum > 0:
            with entry.lock:
                entry.deficit += quantum
        while True:
            with entry.lock:
                if not entry.queue:
                    entry.parked.set()
                    entry.deficit = 0
                    return
                if quantum > 0 and entry.deficit <= 0:
                    request = None
                else:
                    request = entry.queue.popleft()
            if request is None:
                # Quantum spent with work left: go to the back of the line.
                self._schedule_drain(entry)
                return
            if request.deadline is not None and request.deadline.expired:
                self._shed_expired(entry, request)
                continue
            with entry.lock:
                # After the shed check: expired requests must not consume
                # the tenant's deficit.
                entry.deficit -= 1
            try:
                self._execute(entry, request)
            except BaseException:
                # A KeyboardInterrupt/SystemExit re-raised by _execute ends
                # this drain task. Leave the queue to a fresh one (or park
                # cleanly) — otherwise the entry never parks again and
                # the tenant's later requests are never dispatched.
                with entry.lock:
                    reschedule = bool(entry.queue)
                    if not reschedule:
                        entry.parked.set()
                        entry.deficit = 0
                if reschedule:
                    self._schedule_drain(entry)
                raise

    def _shed_expired(self, entry: _Entry, request: _Request) -> None:
        """Drop a request whose deadline ran out while it waited in queue.

        The work never runs — and for durable sessions therefore never
        reaches the write-ahead log: a shed is invisible to replay.
        """
        with self._counters_lock:
            self.requests_expired += 1
        if METRICS.enabled:
            METRICS.inc("overload.shed_deadline")
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(
                RequestExpired(
                    f"deadline of {request.deadline.budget_ms:g}ms expired "
                    f"before dispatch for {entry.tenant_id!r}",
                    checkpoint="dequeue",
                    retry_after_ms=RETRY_AFTER_MS,
                    tenant=entry.tenant_id,
                )
            )
        self._request_done(request)

    def _strand_queue(self, entry: _Entry) -> int:
        """Fail every request still queued for *entry* (shutdown path).

        Pops one-at-a-time under the entry lock so a drain racing the
        shutdown and this loop each resolve a disjoint set of futures.
        """
        stranded = 0
        while True:
            with entry.lock:
                if not entry.queue:
                    break
                request = entry.queue.popleft()
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    SessionError(
                        f"session manager shut down with the request for "
                        f"{entry.tenant_id!r} still queued"
                    )
                )
                stranded += 1
            self._request_done(request)
        if stranded:
            with self._counters_lock:
                self.requests_stranded += stranded
            if METRICS.enabled:
                METRICS.inc("server.requests_stranded", stranded)
        return stranded

    def _request_done(self, request: _Request) -> None:
        """Release the request's inflight slot (exactly once per request)."""
        if not request.tracked:
            return
        request.tracked = False
        with self._counters_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionManager._inflight", self)
            self._inflight -= 1
        if METRICS.enabled:
            METRICS.gauge("overload.inflight", float(self.inflight))

    def _touch(self, entry: _Entry) -> None:
        """Refresh the entry's recency *and* its LRU position, atomically.

        Both under the registry lock: updating ``last_used`` without
        ``move_to_end`` (or off the lock) lets eviction order disagree
        with actual recency — the busiest tenant could be the LRU victim.
        """
        with self._registry_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionManager._registry", self)
            entry.last_used = self._clock()
            if self._registry.get(entry.tenant_id) is entry:
                self._registry.move_to_end(entry.tenant_id)

    def _apply_service_level(self, entry: _Entry) -> None:
        """Lazily align the session with the controller's level.

        Runs on the worker inside the tenant's serialized stream, and
        ``set_service_level`` is a *recorded* session action — so a
        durable session's brownout window replays exactly where it
        happened in its history.
        """
        level = self._controller.level
        if entry.applied_level == level:
            return
        entry.applied_level = level
        entry.session.set_service_level(level)

    def _execute(self, entry: _Entry, request: _Request) -> None:
        fn, future = request.fn, request.future
        if not future.set_running_or_notify_cancel():
            self._request_done(request)
            return
        self._touch(entry)
        with entry.lock:
            entry.running_on = threading.get_ident()
        started = self._clock()
        if METRICS.enabled:
            METRICS.observe("overload.queue_wait_ms", (started - request.enqueued) * 1000.0)
        self._apply_service_level(entry)
        try:
            with METRICS.timer("server.request_ms"):
                try:
                    with deadline_scope(request.deadline):
                        result = fn(entry.session)
                except RequestExpired as exc:
                    # Cooperative cancellation, not a bug in the request:
                    # counted apart from request_errors.
                    with self._counters_lock:
                        self.requests_canceled += 1
                    future.set_exception(exc)
                except BaseException as exc:
                    with self._counters_lock:
                        self.request_errors += 1
                    if METRICS.enabled:
                        METRICS.inc("server.request_errors")
                    future.set_exception(exc)
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        # The caller gets the exception through the future,
                        # but a worker must not swallow interpreter-exit
                        # signals (the REPRO003 posture services take).
                        raise
                else:
                    future.set_result(result)
        finally:
            with entry.lock:
                entry.running_on = None
            self._request_done(request)
            self._observe_load(started)

    def _observe_load(self, started: float) -> None:
        """Feed the brownout controller; act on a level transition."""
        latency_ms = (self._clock() - started) * 1000.0
        pressure = min(1.0, self.inflight / max(1, OVERLOAD.max_inflight))
        change = self._controller.observe(latency_ms, pressure)
        if change == "enter":
            # Brownout: shrink the shared tiers for memory headroom;
            # sessions pick the degraded level up lazily on their next
            # request (inside their serialized streams).
            self.base.tiers.shrink(BROWNOUT_SHRINK)
            if METRICS.enabled:
                METRICS.inc("overload.brownout_entered")
                METRICS.gauge("overload.level", 1.0)
        elif change == "exit":
            self.base.tiers.restore()
            if METRICS.enabled:
                METRICS.inc("overload.brownout_exited")
                METRICS.gauge("overload.level", 0.0)

    # -- introspection / shutdown ---------------------------------------------
    def tenant_ids(self) -> list[str]:
        with self._registry_lock:
            return list(self._registry)

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._registry)

    def stats(self) -> dict[str, Any]:
        """Lifecycle counters plus the shared tier bundle's cache stats."""
        with self._registry_lock:
            active = len(self._registry)
        with self._counters_lock:
            counters = {
                "created": self.sessions_created,
                "evicted": self.sessions_evicted,
                "expired": self.sessions_expired,
                "checkpointed": self.sessions_checkpointed,
                "requests": self.requests,
                "request_errors": self.request_errors,
            }
            overload = {
                "shed": self.requests_shed,
                "shed_reasons": dict(self.shed_reasons),
                "expired": self.requests_expired,
                "canceled": self.requests_canceled,
                "stranded": self.requests_stranded,
                "inflight": self._inflight,
            }
        overload["level"] = self._controller.level
        overload["brownout_entered"] = self._controller.entered
        overload["brownout_exited"] = self._controller.exited
        return {
            "active": active,
            **counters,
            "overload": overload,
            "tiers": self.base.tiers.stats(),
        }

    def shutdown(self, wait: bool = True) -> None:
        """Drain the pool, persist durable sessions, refuse further requests.

        Requests still queued when the pool stops are *stranded*: each is
        failed with :class:`SessionError` so callers blocked in
        ``.result()`` wake up instead of hanging forever.
        """
        with self._registry_lock:
            # Swap the pool out under the same lock _executor creates it
            # under, so a racing lazy-create cannot resurrect a pool this
            # shutdown will never see (the .shutdown call itself stays
            # outside — it blocks on in-flight work).
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        with self._registry_lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionManager._registry", self)
            victims = list(self._registry.values())
            self._registry.clear()
        for entry in victims:
            self._strand_queue(entry)
        try:
            self._checkpoint_all(victims)
        finally:
            if self.store is not None:
                self.store.close()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
