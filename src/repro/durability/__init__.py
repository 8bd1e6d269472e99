"""Durable sessions: write-ahead action log, checkpoint/replay, recovery.

The paper's workflow is a long-lived accumulation of user intent —
pastes, accepts/rejects, link examples, trust feedback — and before this
layer all of it lived in memory and died with the process. This package
makes a session's history durable and its state reconstructible:

- :mod:`~repro.durability.config` — the :data:`DURABILITY` switch set
  (``REPRO_DURABILITY=0`` reproduces in-memory behavior bit-for-bit);
- :mod:`~repro.durability.wal` — the append-only CRC-framed log with
  prefix-consistent reads;
- :mod:`~repro.durability.recorder` — write-ahead event sourcing at the
  :class:`~repro.core.session.CopyCatSession` boundary, with periodic
  compaction of the log into a checkpoint file;
- :mod:`~repro.durability.actions` / :mod:`~repro.durability.docs` —
  per-action JSON codecs, including the copied documents themselves;
- :mod:`~repro.durability.replay` — deterministic re-execution and the
  bit-identity :func:`state_digest`;
- :mod:`~repro.durability.store` — per-tenant checkpoint + log files
  under a durability root, with damage-tolerant recovery;
- :mod:`~repro.durability.faults` — seeded torn-write / corruption /
  fsync-failure injection (the PR-3 chaos pattern applied to storage).

The session server composes these: :class:`~repro.server.manager.
SessionManager` checkpoints sessions through eviction instead of
dropping them, and recovers tenants from checkpoint + log tail on first
attach after a restart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

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
    "durability_stats_line",
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
    seed: int | None = None,
    checkpoint_interval: int | None = None,
) -> tuple[SessionRecorder, ReplayReport | None]:
    """Attach a recorder to a fresh session, replaying any stored history.

    The one-call recovery path: recover the trusted action prefix for
    *tenant*, hook a recorder onto *session*, re-apply the history, and
    leave the recorder positioned so the next live action continues the
    sequence (the replayed log tail still counts toward the next
    checkpoint).
    """
    recovered = store.recover(tenant)
    recorder = SessionRecorder(
        tenant, store, seed=seed, checkpoint_interval=checkpoint_interval
    )
    attach_recorder(session, recorder)
    report: ReplayReport | None = None
    if recovered.actions:
        report = replay(session, recovered.actions)
        recorder.mark_replayed_tail(recovered.from_wal)
    return recorder, report


def durability_stats_line(metrics: Any = None) -> str:
    """One-line summary of durability activity (``--trace`` output)."""
    from ..obs import METRICS

    m = metrics or METRICS
    logged = int(m.counter_value("durability.actions_logged"))
    checkpoints = int(m.counter_value("durability.checkpoints"))
    recovered = int(m.counter_value("durability.sessions_recovered"))
    replayed = int(m.counter_value("durability.actions_replayed"))
    torn = int(m.counter_value("durability.recovery_torn_records"))
    crc = int(m.counter_value("durability.recovery_crc_failures"))
    gaps = int(m.counter_value("durability.recovery_seq_gaps"))
    faults = int(m.counter_value("durability.faults_injected"))
    line = (
        f"durability: {logged} actions logged · {checkpoints} checkpoints · "
        f"{recovered} sessions recovered ({replayed} actions replayed) · "
        f"damage absorbed: {torn} torn / {crc} crc / {gaps} gaps · "
        f"{faults} faults injected"
    )
    if not DURABILITY.enabled:
        line += " · disabled"
    return line
