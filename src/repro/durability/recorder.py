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

Checkpoints are **compacted history**, not state snapshots: the
checkpoint file holds the full serialized action sequence so far, and
recovery is always "fresh session, replay checkpoint actions + log
tail". One recovery code path, and bit-identity falls out of replay
re-running the real methods under the REPRO005 invariants (seeded RNG,
no wall clock) instead of a hand-written state serializer chasing every
learner's internals.

Each action is encoded once. Beside :attr:`SessionRecorder.history` the
recorder keeps, under its lock, the canonical text the log append
framed for each record; a checkpoint splices those texts into the file
rather than re-encoding the history. A record without one — replayed
history, a recorder with no store, an append torn mid-write — is
encoded at the next checkpoint.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable

from ..analysis.concurrency.runtime import RACECHECK, TRACKER, make_rlock
from ..obs import METRICS
from ..server.overload import shielded_deadline
from .actions import encode_action
from .config import DURABILITY
from .wal import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import DurabilityStore


class SessionRecorder:
    """Records one session's actions; optionally persists them via a store."""

    def __init__(
        self,
        tenant: str = "session",
        store: "DurabilityStore | None" = None,
        *,
        seed: int | None = None,
        checkpoint_interval: int | None = None,
    ):
        self.tenant = tenant
        self.store = store
        self.seed = seed
        self.checkpoint_interval = (
            DURABILITY.checkpoint_interval
            if checkpoint_interval is None
            else checkpoint_interval
        )
        #: the full compacted action history (checkpoint base + tail).
        self.history: list[dict[str, Any]] = []
        # history[i]'s canonical text, or None until a checkpoint needs it.
        self._texts: list[str | None] = []
        #: actions appended since the last checkpoint (tail length).
        self.since_checkpoint = 0
        self.replaying = False
        self._depth = 0
        self._lock = make_rlock("SessionRecorder._lock")
        # Lifetime counters (always on; mirrored into METRICS when enabled).
        self.actions_recorded = 0
        self.checkpoints = 0

    # -- recording -----------------------------------------------------------
    @property
    def should_record(self) -> bool:
        return not self.replaying and self._depth == 0

    @contextmanager
    def action(self, name: str, payload: dict[str, Any]):
        """Write-ahead record one top-level action, then run its body."""
        with self._lock:
            if RACECHECK.enabled:
                TRACKER.note_access("SessionRecorder.history", self)
            record = {"seq": len(self.history), "name": name, "args": payload}
            self.history.append(record)
            self._texts.append(None)
            self.since_checkpoint += 1
            self.actions_recorded += 1
            if self.store is not None:
                # Write-ahead ordering: the record must be durable before the
                # body runs, and seq order must match append order, so the
                # fsync (and the store's failure counters) stay under the
                # action lock.
                self._texts[-1] = self.store.append(self.tenant, record)  # lint: allow=CONC002,CONC004 -- write-ahead ordering requires IO under the action lock
            self._depth += 1
        if METRICS.enabled:
            METRICS.inc("durability.actions_logged")
        try:
            yield record
        finally:
            with self._lock:
                self._depth -= 1
            if (
                self._depth == 0
                and self.store is not None
                and self.checkpoint_interval > 0
                and self.since_checkpoint >= self.checkpoint_interval
            ):
                self.checkpoint()

    def restore_history(self, actions: list[dict[str, Any]]) -> None:
        """Adopt a replayed action sequence as this recorder's history.

        Its texts are left for the next checkpoint to encode, so recovery
        itself encodes nothing.
        """
        with self._lock:
            self.history = [dict(a) for a in actions]
            self._texts = [None] * len(self.history)

    def mark_replayed_tail(self, count: int) -> None:
        """Position the checkpoint counter after recovery.

        The replayed WAL tail still counts toward the next checkpoint;
        taken under the recording lock so a racing first live action
        cannot interleave with the repositioning.
        """
        with self._lock:
            self.since_checkpoint = count

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
        """Compact the log into the checkpoint file; True on success.

        The file is built from each action's append-time text (records
        without one are encoded now). The write is atomic (tmp + rename +
        directory fsync) and the log is truncated only *after* the rename
        is durable, all under the recording lock — a crash at any point
        leaves either the old checkpoint + full log or the new checkpoint
        + empty log, both of which replay to the same state.
        """
        if self.store is None:
            return False
        with self._lock:
            self._texts = [
                canonical_json(record) if text is None else text
                for text, record in zip(self._texts, self.history, strict=True)
            ]
            # Compact-then-truncate must be atomic with respect to new
            # appends or replayed-to state and logged tail could diverge,
            # so the checkpoint IO stays under the recording lock.
            wrote = self.store.write_checkpoint(  # lint: allow=CONC002,CONC004 -- checkpoint+truncate must be atomic vs appends
                self.tenant, self._texts, seed=self.seed
            )
            if wrote:
                self.store.truncate_wal(self.tenant)
                self.since_checkpoint = 0
                self.checkpoints += 1
        if wrote and METRICS.enabled:
            METRICS.inc("durability.checkpoints")
            METRICS.inc("durability.log_truncations")
        return wrote

    def close(self) -> None:
        if self.store is not None:
            self.store.close_tenant(self.tenant)

    def __repr__(self) -> str:
        mode = "replaying" if self.replaying else "recording"
        return (
            f"SessionRecorder({self.tenant!r}, {mode}, "
            f"{len(self.history)} actions, {self.checkpoints} checkpoints)"
        )


def recorded(method: Callable) -> Callable:
    """Decorator: log this session method's calls through the recorder.

    Sessions without a recorder (``session.durability is None`` — the
    ``REPRO_DURABILITY=0`` path and every pre-existing standalone use)
    pay one attribute check and dispatch straight to the method,
    preserving in-memory behavior bit-for-bit.
    """
    name = method.__name__

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
