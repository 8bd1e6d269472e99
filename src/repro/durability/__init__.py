"""Durable sessions: write-ahead action log, snapshots, recovery.

The paper's workflow is a long-lived accumulation of user intent —
pastes, accepts/rejects, link examples, trust feedback — and before this
layer all of it lived in memory and died with the process. This package
makes a session's history durable and its state reconstructible:

- :mod:`~repro.durability.config` — the :data:`DURABILITY` knobs
  (persistence is on only where a durability root is configured);
- :mod:`~repro.durability.wal` — the append-only CRC-framed log with
  prefix-consistent reads;
- :mod:`~repro.durability.recorder` — write-ahead event sourcing at the
  :class:`~repro.core.session.CopyCatSession` boundary, with a periodic
  checkpoint that snapshots the session and truncates the log;
- :mod:`~repro.durability.snapshot` — the checkpoint format: a header
  line and a pickle of the session's state, shared objects (base
  catalog, services, cache tiers) referenced rather than copied;
- :mod:`~repro.durability.actions` / :mod:`~repro.durability.docs` —
  per-action JSON codecs, including the copied documents themselves;
- :mod:`~repro.durability.replay` — deterministic re-execution of a log
  tail and the bit-identity :func:`state_digest`;
- :mod:`~repro.durability.store` — per-tenant checkpoint + log files
  under a durability root, with damage-tolerant recovery;
- :mod:`~repro.durability.faults` — seeded torn-write / corruption /
  fsync-failure injection (the PR-3 chaos pattern applied to storage).

The session server composes these: :class:`~repro.server.manager.
SessionManager` checkpoints sessions through eviction instead of
dropping them, and on first attach recovers a tenant by loading its
snapshot and replaying only the log tail after it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .actions import (
    UNRECORDED,
    apply_action,
    encode_action,
    event_from_dict,
    event_to_dict,
    recordable_actions,
)
from .config import DURABILITY, DurabilityConfig
from .docs import SerializationError
from .faults import WAL_FAULTS, WalFaultInjector, WalFaultPolicy, WalFaultSpec
from .recorder import SessionRecorder, recorded
from .replay import ReplayReport, attach_recorder, digest_hash, replay, state_digest
from .store import DurabilityStore, RecoveredState
from .wal import InjectedWalFault, WalReadResult, WalWriter, canonical_json, encode_frame, read_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import CopyCatSession

__all__ = [
    "DURABILITY",
    "DurabilityConfig",
    "DurabilityStore",
    "InjectedWalFault",
    "RecoveredState",
    "ReplayReport",
    "SerializationError",
    "SessionRecorder",
    "UNRECORDED",
    "WAL_FAULTS",
    "WalFaultInjector",
    "WalFaultPolicy",
    "WalFaultSpec",
    "WalReadResult",
    "WalWriter",
    "apply_action",
    "attach_recorder",
    "canonical_json",
    "digest_hash",
    "encode_action",
    "encode_frame",
    "event_from_dict",
    "event_to_dict",
    "read_wal",
    "recordable_actions",
    "recorded",
    "recover_session",
    "replay",
    "state_digest",
]


def recover_session(
    session: "CopyCatSession",
    tenant: str,
    store: DurabilityStore,
    *,
    checkpoint_interval: int | None = None,
) -> tuple[SessionRecorder, ReplayReport | None]:
    """Attach a recorder to a fresh session, restoring any stored state.

    The one-call recovery path: load *tenant*'s snapshot into *session*,
    hook a recorder onto it, replay the log tail after the snapshot, and
    leave the recorder positioned so the next live action continues the
    sequence (the replayed tail still counts toward the next checkpoint).
    """
    recovered = store.recover(tenant, session)
    recorder = SessionRecorder(tenant, store, checkpoint_interval=checkpoint_interval)
    attach_recorder(session, recorder)
    report: ReplayReport | None = None
    if recovered.actions:
        report = replay(session, recovered.actions)
    recorder.resume(recovered.next_seq, recovered.actions)
    return recorder, report
