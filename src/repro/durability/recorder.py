"""The session recorder: event sourcing at the CopyCatSession boundary.

A :class:`SessionRecorder` hangs off ``session.durability`` and observes
every semantic action through the :func:`recorded` decorator on the
session's public methods. The protocol is **write-ahead**: the action is
framed and appended to the tenant's log *before* the method body runs,
so a process killed mid-action recovers to the state *as if the action
completed* — replay simply re-executes it. (The alternative — logging
after — loses exactly the action the crash interrupted.)

Nesting: session methods call each other (``accept_column`` previews,
which may compute suggestions). Only the *outermost* user-invoked call
is an action; inner calls are its implementation detail and replaying
them separately would double-apply state. The recorder therefore tracks
call depth and records at depth zero only.

Checkpoints are **state snapshots**: the session's own state, pickled
(:mod:`~repro.durability.snapshot`), covering every action recorded so
far. Recovery is "fresh session, load the snapshot, replay the log tail".
Bit-identity still falls out of replay re-running the real methods under
the REPRO005 invariants (seeded RNG, no wall clock) for the tail, and out
of pickling the session's own objects for the rest, instead of a
hand-written state serializer chasing every learner's internals.

:attr:`SessionRecorder.history` is the log tail: the records appended
(or replayed) since the last checkpoint, so it is bounded by the
checkpoint interval. A snapshot is taken only while no recorded action
body runs: one requested from inside an action is deferred to that
action's end.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_rlock
from ..obs import METRICS
from ..server.overload import shielded_deadline
from .actions import encode_action, register_action
from .config import DURABILITY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import CopyCatSession
    from .store import DurabilityStore


class SessionRecorder:
    """Records one session's actions; optionally persists them via a store."""

    def __init__(
        self,
        tenant: str = "session",
        store: "DurabilityStore | None" = None,
        *,
        checkpoint_interval: int | None = None,
    ):
        self.tenant = tenant
        self.store = store
        self.checkpoint_interval = (
            DURABILITY.checkpoint_interval
            if checkpoint_interval is None
            else checkpoint_interval
        )
        #: the session a checkpoint snapshots (set by ``attach_recorder``).
        self.session: "CopyCatSession | None" = None
        #: the records since the last checkpoint (the log tail).
        self.history: list[dict[str, Any]] = []
        #: the seq the next record gets: every action so far, checkpointed or not.
        self.next_seq = 0
        self.replaying = False
        self.sealed = False
        self._depth = 0
        self._deferred: str | None = None  # "checkpoint" or "seal", run at depth 0
        self._lock = make_rlock("SessionRecorder._lock")
        # Lifetime counters (always on; mirrored into METRICS when enabled).
        self.actions_recorded = 0
        self.checkpoints = 0

    @property
    def since_checkpoint(self) -> int:
        """Actions since the last checkpoint (the tail length)."""
        return len(self.history)

    # -- recording -----------------------------------------------------------
    @property
    def should_record(self) -> bool:
        return not self.replaying and self._depth == 0 and not self.sealed

    @contextmanager
    def action(self, name: str, payload: dict[str, Any]):
        """Write-ahead record one top-level action, then run its body."""
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionRecorder.history", self)
            # Sealed after this call's should_record check: run unrecorded.
            record = None if self.sealed else {"seq": self.next_seq, "name": name, "args": payload}
            if record is not None:
                if self.store is not None:
                    # Write-ahead ordering: the record must be durable before
                    # the body runs, and seq order must match append order,
                    # so the fsync (and the store's failure counters) stay
                    # under the action lock.
                    self.store.append(self.tenant, record)  # lint: allow=CONC002,CONC004 -- write-ahead ordering requires IO under the action lock
                self.history.append(record)
                self.next_seq += 1
                self.actions_recorded += 1
                self._depth += 1
        if record is None:
            yield None
            return
        if METRICS.enabled:
            METRICS.inc("durability.actions_logged")
        try:
            yield record
        finally:
            with self._lock:
                self._depth -= 1
                deferred, self._deferred = self._deferred, None
            if deferred == "seal":
                self.seal()
            elif deferred == "checkpoint" or (
                self.store is not None
                and self.checkpoint_interval > 0
                and self.since_checkpoint >= self.checkpoint_interval
            ):
                self.checkpoint()

    def resume(self, next_seq: int, tail: list[dict[str, Any]]) -> None:
        """Position the recorder after recovery.

        *tail* is the replayed log tail (it still counts toward the next
        checkpoint) and *next_seq* the seq the next live action gets;
        taken under the recording lock so a racing first live action
        cannot interleave with the repositioning.
        """
        with self._lock:
            self.history = list(tail)
            self.next_seq = next_seq

    @contextmanager
    def replay_mode(self):
        """Suppress recording while logged actions are re-applied."""
        previous = self.replaying
        self.replaying = True
        try:
            yield self
        finally:
            self.replaying = previous

    # -- checkpointing -------------------------------------------------------
    def checkpoint(self) -> bool:
        """Snapshot the session into the checkpoint file; True on success.

        The write is atomic (tmp + rename + directory fsync) and the log is
        truncated only *after* the rename is durable, all under the
        recording lock — a crash at any point leaves either the old
        checkpoint + full log or the new checkpoint + stale-or-empty log,
        both of which recover to the same state. Called while a recorded
        action body runs, the snapshot is deferred to that action's end
        (False now).
        """
        if self.store is None or self.session is None:
            return False
        with self._lock:
            if self._depth > 0:
                self._deferred = self._deferred or "checkpoint"
                return False
            # Snapshot-then-truncate must be atomic with respect to new
            # appends or the snapshot and the logged tail could diverge,
            # so the checkpoint IO stays under the recording lock.
            wrote = self.store.write_checkpoint(  # lint: allow=CONC002,CONC004 -- snapshot+truncate must be atomic vs appends
                self.tenant, self.session, n_actions=self.next_seq
            )
            if wrote:
                self.store.truncate_wal(self.tenant)
                self.history = []
                self.checkpoints += 1
        if wrote and METRICS.enabled:
            METRICS.inc("durability.checkpoints")
            METRICS.inc("durability.log_truncations")
        return wrote

    def seal(self) -> None:
        """Take a last checkpoint, close the log, and record nothing more.

        Called while a recorded action body runs, the seal is deferred to
        that action's end.
        """
        with self._lock:
            if self._depth > 0:
                self._deferred = "seal"
                return
            self.sealed = True  # from here on no action records
        self.checkpoint()
        self.close()

    def close(self) -> None:
        if self.store is not None:
            self.store.close_tenant(self.tenant)

    def __repr__(self) -> str:
        mode = "replaying" if self.replaying else "recording"
        return (
            f"SessionRecorder({self.tenant!r}, {mode}, {self.next_seq} actions, "
            f"{len(self.history)} since the last of {self.checkpoints} checkpoints)"
        )


def recorded(method: Callable) -> Callable:
    """Decorator: log this session method's calls through the recorder.

    Sessions without a recorder (``session.durability is None`` — every
    session with no durability root) pay one attribute check and dispatch straight to the method,
    preserving in-memory behavior bit-for-bit.
    """
    name = method.__name__
    register_action(method)

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        recorder = self.durability
        if recorder is None or not recorder.should_record:
            return method(self, *args, **kwargs)
        payload = encode_action(name, self, args, kwargs)
        with recorder.action(name, payload):
            # The action is already written ahead; a cooperative deadline
            # cancellation mid-body would leave a logged action whose
            # effects never happened, breaking replay bit-identity. Shield
            # the body: recorded actions run to completion once admitted.
            with shielded_deadline():
                return method(self, *args, **kwargs)

    return wrapper
