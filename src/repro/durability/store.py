"""Per-tenant durable storage: checkpoint file + write-ahead log.

Layout under a durability root::

    <root>/<tenant-dir>/checkpoint.json   # compacted action history
    <root>/<tenant-dir>/wal.log           # CRC-framed tail since then

``<tenant-dir>`` is the tenant id sanitized for the filesystem plus a
short hash (so ``"a/b"`` and ``"a_b"`` cannot collide).

Recovery (:meth:`DurabilityStore.recover`) is prefix-consistent and
total — it never raises for damaged files, it just trusts less:

1. read ``checkpoint.json``; a missing file contributes no actions, and
   so does one that fails to parse or whose shape does not check out
   (wrong ``format``, ``n_actions`` not counting ``actions``, or an action
   that is not a dict with ``seq`` equal to its index, a string name and
   dict args) — counted as ``durability.checkpoint_corrupt``, after which
   the log alone may still replay;
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
checkpoint with a stale-or-empty log — both replay to the same state.

A checkpoint is not re-encoded from the action dicts: the caller hands
over each action's canonical text (:func:`~repro.durability.wal.canonical_json`,
the same text its log frame holds), and the file is those texts spliced
into the envelope — byte for byte what ``json.dump(payload,
sort_keys=True, separators=(",", ":"))`` of the whole payload writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Any

from ..obs import METRICS
from .faults import WAL_FAULTS
from .wal import WalWriter, canonical_json, read_wal

CHECKPOINT_NAME = "checkpoint.json"
WAL_NAME = "wal.log"
FORMAT_VERSION = 1

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
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
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
    """What :meth:`DurabilityStore.recover` found for one tenant."""

    def __init__(
        self,
        actions: list[dict[str, Any]],
        *,
        from_checkpoint: int = 0,
        from_wal: int = 0,
        stop_reason: str | None = None,
        seed: int | None = None,
    ):
        self.actions = actions
        self.from_checkpoint = from_checkpoint
        self.from_wal = from_wal
        self.stop_reason = stop_reason
        self.seed = seed

    def __bool__(self) -> bool:
        return bool(self.actions)

    def __repr__(self) -> str:
        return (
            f"RecoveredState({len(self.actions)} actions: "
            f"{self.from_checkpoint} checkpointed + {self.from_wal} tail, "
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
        self, tenant: str, texts: list[str], *, seed: int | None = None
    ) -> bool:
        """Atomically persist the compacted history; False when the
        filesystem refused (the old checkpoint + log stay authoritative).

        *texts* holds each action's :func:`canonical_json` text, in
        sequence order; they are spliced into the file unchanged.
        """
        actions = ",".join(texts)
        text = (
            f'{{"actions":[{actions}],"format":{FORMAT_VERSION},'
            f'"n_actions":{len(texts)},"seed":{canonical_json(seed)},'
            f'"tenant":{canonical_json(tenant)}}}'
        )
        directory = self.tenant_dir(tenant)
        directory.mkdir(parents=True, exist_ok=True)
        target = self.checkpoint_path(tenant)
        tmp = directory / (CHECKPOINT_NAME + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
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
    def recover(self, tenant: str) -> RecoveredState:
        """The trusted action prefix for one tenant (never raises)."""
        base: list[dict[str, Any]] = []
        seed: int | None = None
        checkpoint_path = self.checkpoint_path(tenant)
        if checkpoint_path.exists():
            try:
                payload = json.loads(checkpoint_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                payload = None
            actions = _trusted_actions(payload)
            if actions is None:
                # A half-written, rotted or misshapen checkpoint
                # contributes nothing; the log may still carry a
                # replayable prefix.
                METRICS.inc("durability.checkpoint_corrupt")
            else:
                base = actions
                seed = payload.get("seed")

        result = read_wal(self.wal_path(tenant))
        if result.stop_reason is not None:
            METRICS.inc(_STOP_COUNTERS[result.stop_reason])

        next_seq = len(base)
        tail: list[dict[str, Any]] = []
        stop_reason = result.stop_reason
        for record in result.records:
            seq = record.get("seq")
            if not isinstance(seq, int) or seq < next_seq:
                continue  # stale pre-checkpoint record (crash mid-compaction)
            if seq != next_seq:
                # The tail does not continue the trusted prefix: nothing
                # at or after the gap can be ordered, so none of it is
                # replayed.
                METRICS.inc("durability.recovery_seq_gaps")
                stop_reason = stop_reason or "seq-gap"
                break
            tail.append(record)
            next_seq += 1

        actions = base + tail
        if actions and METRICS.enabled:
            METRICS.inc("durability.sessions_recovered")
        return RecoveredState(
            actions,
            from_checkpoint=len(base),
            from_wal=len(tail),
            stop_reason=stop_reason,
            seed=seed,
        )

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
