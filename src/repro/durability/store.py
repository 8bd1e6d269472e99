"""Per-tenant durable storage: checkpoint file + write-ahead log.

Layout under a durability root::

    <root>/<tenant-dir>/checkpoint.json   # header line + session snapshot
    <root>/<tenant-dir>/wal.log           # CRC-framed tail since then

``<tenant-dir>`` is the tenant id sanitized for the filesystem plus a
short hash (so ``"a/b"`` and ``"a_b"`` cannot collide). The checkpoint
keeps its old name; its format is :mod:`~repro.durability.snapshot`'s.

Recovery (:meth:`DurabilityStore.recover`) is prefix-consistent and
total — it never raises for damaged files, it just trusts less:

1. read ``checkpoint.json``. A snapshot (format 2) must match its
   header's digest, tenant and Python version before it is unpickled
   into the fresh session; it covers the first ``n_actions`` actions. A
   format-1 checkpoint, the action list older builds wrote, is a long
   log tail replayed from empty (its shape must check out: ``n_actions``
   counting ``actions``, each a dict with ``seq`` equal to its index, a
   string name and dict args). A missing file covers nothing; an
   unreadable, misshapen, foreign or unloadable one covers nothing and is
   counted as ``durability.checkpoint_corrupt``, after which the log
   alone may still replay;
2. scan ``wal.log`` forward, stopping at the first torn / truncated /
   CRC-mismatched frame (each stop cause has its own counter);
3. stitch: log records must continue the checkpoint's sequence exactly.
   Records below the checkpoint base are stale (a crash landed between
   checkpoint rename and log truncation) and are skipped; a gap above it
   means the tail is untrustworthy and is dropped
   (``durability.recovery_seq_gaps``).

Checkpoint writes are atomic: write to a temp file in the same
directory, fsync, ``os.replace``, fsync the directory. The log is
truncated only after the rename is durable. A crash anywhere in that
protocol leaves either the old checkpoint with the full log or the new
checkpoint with a stale-or-empty log — both recover to the same state.

Unpickling runs code: a store reads snapshots only from its own root,
which must be as trusted as the process itself.
"""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..obs import METRICS
from . import snapshot
from .faults import WAL_FAULTS
from .wal import WalWriter, read_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.session import CopyCatSession

CHECKPOINT_NAME = "checkpoint.json"
WAL_NAME = "wal.log"
#: the checkpoint format older builds wrote: the action list as JSON.
ACTION_LIST_FORMAT = 1

_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")

_STOP_COUNTERS = {
    "torn-header": "durability.recovery_torn_records",
    "torn-record": "durability.recovery_torn_records",
    "crc-mismatch": "durability.recovery_crc_failures",
    "bad-payload": "durability.recovery_crc_failures",
    "bad-length": "durability.recovery_truncated",
}


def tenant_dirname(tenant: str) -> str:
    """A filesystem-safe, collision-free directory name for a tenant id."""
    safe = _SAFE.sub("_", tenant)[:40] or "tenant"
    digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{digest}"


def _trusted_actions(payload: Any) -> list[dict[str, Any]] | None:
    """The checkpoint's actions when its shape checks out, else None.

    Anything looser would crash replay or mis-stitch the log tail, which
    continues at ``seq == len(actions)``.
    """
    if not isinstance(payload, dict) or payload.get("format") != ACTION_LIST_FORMAT:
        return None
    actions = payload.get("actions")
    if not isinstance(actions, list) or payload.get("n_actions") != len(actions):
        return None
    for index, action in enumerate(actions):
        if not (
            isinstance(action, dict)
            and action.get("seq") == index
            and isinstance(action.get("name"), str)
            and isinstance(action.get("args"), dict)
        ):
            return None
    return actions


class RecoveredState:
    """What :meth:`DurabilityStore.recover` found for one tenant.

    ``actions`` is the tail to replay: the log records after the
    snapshot, preceded by a format-1 checkpoint's actions when that is
    what the file held. ``from_checkpoint`` counts the actions the
    checkpoint covers, ``from_wal`` the log records in the tail.
    """

    def __init__(
        self,
        actions: list[dict[str, Any]],
        *,
        from_checkpoint: int = 0,
        from_wal: int = 0,
        stop_reason: str | None = None,
        has_snapshot: bool = False,
    ):
        self.actions = actions
        self.from_checkpoint = from_checkpoint
        self.from_wal = from_wal
        self.stop_reason = stop_reason
        #: True when a valid snapshot covers the first ``from_checkpoint``.
        self.has_snapshot = has_snapshot

    @property
    def next_seq(self) -> int:
        """The seq the next live action continues at."""
        return self.from_checkpoint + self.from_wal

    def __bool__(self) -> bool:
        return self.has_snapshot or bool(self.actions)

    def __repr__(self) -> str:
        base = "snapshot" if self.has_snapshot else "checkpointed"
        return (
            f"RecoveredState({len(self.actions)} actions to replay: "
            f"{self.from_checkpoint} {base} + {self.from_wal} tail, "
            f"stop={self.stop_reason!r})"
        )


class DurabilityStore:
    """Checkpoint + WAL files for every tenant under one root."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._writers: dict[str, WalWriter] = {}

    # -- paths ---------------------------------------------------------------
    def tenant_dir(self, tenant: str) -> Path:
        return self.root / tenant_dirname(tenant)

    def checkpoint_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / CHECKPOINT_NAME

    def wal_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / WAL_NAME

    # -- log appends ---------------------------------------------------------
    def _writer(self, tenant: str) -> WalWriter:
        writer = self._writers.get(tenant)
        if writer is None:
            from .config import DURABILITY

            writer = WalWriter(
                self.wal_path(tenant),
                fsync=DURABILITY.fsync,
                faults=WAL_FAULTS.policy,
                tenant=tenant,
            )
            self._writers[tenant] = writer
        return writer

    def append(self, tenant: str, record: dict[str, Any]) -> str:
        """Append one record to the tenant's log; returns its canonical text."""
        return self._writer(tenant).append(record)

    def truncate_wal(self, tenant: str) -> None:
        self._writer(tenant).truncate()

    # -- checkpointing -------------------------------------------------------
    def write_checkpoint(
        self,
        tenant: str,
        session: "CopyCatSession",
        *,
        n_actions: int,
    ) -> bool:
        """Atomically persist a snapshot of *session* covering its first
        *n_actions* actions; False when the filesystem refused (the old
        checkpoint + log stay authoritative)."""
        data = snapshot.encode(session, tenant, n_actions)
        directory = self.tenant_dir(tenant)
        directory.mkdir(parents=True, exist_ok=True)
        target = self.checkpoint_path(tenant)
        tmp = directory / (CHECKPOINT_NAME + ".tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
            # The rename is durable only once the directory entry is;
            # truncating the log before that could keep the empty log and
            # lose the new checkpoint, and with it the history.
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError:
            # Checkpointing is an optimization over the log; a failed
            # write must never lose the authoritative state. Count it,
            # leave the log untruncated, and keep serving.
            METRICS.inc("durability.fsync_failures")
            return False
        return True

    # -- recovery ------------------------------------------------------------
    def _read_checkpoint(
        self, tenant: str, session: "CopyCatSession | None"
    ) -> tuple[int, list[dict[str, Any]], bool]:
        """``(actions covered, actions to replay, snapshot?)``.

        With *session*, a snapshot is loaded into it; without, it is only
        checked against its header.
        """
        path = self.checkpoint_path(tenant)
        if not path.exists():
            return 0, [], False
        try:
            header, payload = snapshot.read_header(path.read_bytes())
            if isinstance(header, dict) and header.get("format") == ACTION_LIST_FORMAT:
                actions = _trusted_actions(header)
                if actions is None:
                    raise snapshot.SnapshotError("misshapen action-list checkpoint")
                return len(actions), actions, False
            n_actions = snapshot.check(header, payload, tenant)
            if session is not None:
                snapshot.load(session, payload)
            return n_actions, [], True
        except Exception:
            # A half-written, rotted, foreign or unloadable checkpoint
            # contributes nothing; the log may still carry a replayable
            # prefix.
            METRICS.inc("durability.checkpoint_corrupt")
            return 0, [], False

    def recover(self, tenant: str, session: "CopyCatSession | None" = None) -> RecoveredState:
        """The trusted state for one tenant (never raises).

        With *session* — a freshly built one — the snapshot is loaded
        into it, and the returned actions are the tail to replay on top.
        """
        covered, base, has_snapshot = self._read_checkpoint(tenant, session)

        result = read_wal(self.wal_path(tenant))
        if result.stop_reason is not None:
            METRICS.inc(_STOP_COUNTERS[result.stop_reason])

        next_seq = covered
        tail: list[dict[str, Any]] = []
        stop_reason = result.stop_reason
        for record in result.records:
            seq = record.get("seq")
            if not isinstance(seq, int) or seq < next_seq:
                continue  # stale pre-checkpoint record (crash before truncation)
            if seq != next_seq:
                # The tail does not continue the trusted prefix: nothing
                # at or after the gap can be ordered, so none of it is
                # replayed.
                METRICS.inc("durability.recovery_seq_gaps")
                stop_reason = stop_reason or "seq-gap"
                break
            tail.append(record)
            next_seq += 1

        recovered = RecoveredState(
            base + tail,
            from_checkpoint=covered,
            from_wal=len(tail),
            stop_reason=stop_reason,
            has_snapshot=has_snapshot,
        )
        if recovered and METRICS.enabled:
            METRICS.inc("durability.sessions_recovered")
        return recovered

    # -- lifecycle -----------------------------------------------------------
    def close_tenant(self, tenant: str) -> None:
        writer = self._writers.pop(tenant, None)
        if writer is not None:
            writer.close()

    def close(self) -> None:
        for tenant in list(self._writers):
            self.close_tenant(tenant)

    def __enter__(self) -> "DurabilityStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
