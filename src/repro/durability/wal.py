"""The append-only, CRC-framed write-ahead log.

One log frame is ``[length: u32le][crc32: u32le][payload]`` where the
payload is a pickled record: one recorded session action, a dict whose
``args`` are the bytes :func:`~repro.durability.actions.encode_action`
made of the call. The format is deliberately dumb: no index, no
compression, no in-place mutation — recovery is a single forward scan
that stops at the first frame that does not check out, which is the
whole crash-consistency story:

- a **torn final frame** (the process died mid-``write``) shows up as a
  short header or short payload — the scan stops before it;
- **bit rot / corruption** shows up as a CRC mismatch — the scan stops
  at it;
- a **truncated file** (filesystem rollback, partial copy) is just the
  torn case at an earlier offset.

Everything before the stop point is trusted; nothing at or after it is.
:func:`read_wal` never raises for damaged tails — it reports the prefix
and the stop cause so the store can count it and replay what survived.
A frame whose payload does not unpickle to a record is ``bad-payload``,
and so is a frame an older build wrote as JSON: like a snapshot, the log
is a same-build format. Unpickling runs code, so a log is read only from
a durability root as trusted as the process itself.

Writes go through :class:`WalWriter`, which consults the seeded
write-fault policy (:mod:`repro.durability.faults`) before each frame so
chaos tests can deterministically tear, corrupt, or fail-to-sync the
log at chosen operation indices.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import CopyCatError
from ..obs import METRICS
from .faults import WalFaultPolicy

_HEADER = struct.Struct("<II")  # (payload length, payload crc32)

#: Refuse absurd frame lengths outright — a length field that large is
#: garbage bytes being read as a header, not a real record.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class InjectedWalFault(CopyCatError):
    """Raised by an injected torn write: the "process" died mid-frame.

    Harness code arms the fault policy, catches this, and then exercises
    recovery against the deliberately damaged log tail.
    """


def _crc32(data: bytes) -> int:
    import zlib

    return zlib.crc32(data) & 0xFFFFFFFF


def _frame(record: dict[str, Any]) -> bytes:
    data = pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data), _crc32(data)) + data


@dataclass
class WalReadResult:
    """What one forward scan of a log recovered.

    ``records`` is the trusted prefix; ``stop_reason`` is ``None`` for a
    clean end-of-file or one of ``"torn-header"``, ``"torn-record"``,
    ``"crc-mismatch"``, ``"bad-payload"``, ``"bad-length"``;
    ``valid_bytes`` is the offset of the first untrusted byte.
    """

    records: list[dict[str, Any]]
    stop_reason: str | None
    valid_bytes: int


def read_wal(path: str | Path) -> WalReadResult:
    """Scan a log file, trusting frames up to the first damaged one."""
    path = Path(path)
    if not path.exists():
        return WalReadResult([], None, 0)
    data = path.read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return WalReadResult(records, "torn-header", offset)
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            return WalReadResult(records, "bad-length", offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            return WalReadResult(records, "torn-record", offset)
        payload = data[start:end]
        if _crc32(payload) != crc:
            return WalReadResult(records, "crc-mismatch", offset)
        try:
            record = pickle.loads(payload)
        except Exception:  # lint: allow=REPRO003 -- any unpicklable payload is the counted bad-payload stop
            return WalReadResult(records, "bad-payload", offset)
        if not isinstance(record, dict):
            return WalReadResult(records, "bad-payload", offset)
        records.append(record)
        offset = end
    return WalReadResult(records, None, offset)


class WalWriter:
    """Appends framed records to one tenant's log file.

    Each append consults the write-fault policy (when armed) so chaos
    tests can deterministically damage the tail:

    - ``"torn"`` — a prefix of the frame is written, then
      :class:`InjectedWalFault` is raised (the simulated crash);
    - ``"corrupt"`` — the frame is written with one payload byte
      flipped (the CRC no longer matches) and the writer *continues*,
      modeling silent bit rot;
    - ``"fsync"`` — the sync step fails with :class:`OSError`; the
      writer counts it and carries on (the record sits in OS buffers,
      durable only if the machine stays up — exactly the window
      prefix-consistent recovery tolerates).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fsync: bool = False,
        faults: WalFaultPolicy | None = None,
        tenant: str = "",
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._faults = faults
        self._tenant = tenant
        self._op_index = 0
        self._file = open(self.path, "ab")

    def append(self, record: dict[str, Any]) -> None:
        """Frame and append one record (write-ahead: called pre-action)."""
        frame = _frame(record)
        kind = None
        if self._faults is not None:
            kind = self._faults.draw(self._tenant, self._op_index)
        self._op_index += 1
        if kind == "torn":
            METRICS.inc("durability.faults_injected")
            cut = max(1, len(frame) - max(1, len(frame) // 3))
            self._file.write(frame[:cut])
            self._file.flush()
            raise InjectedWalFault(
                f"injected torn write on {self.path.name} (op #{self._op_index - 1})"
            )
        if kind == "corrupt":
            METRICS.inc("durability.faults_injected")
            damaged = bytearray(frame)
            damaged[_HEADER.size + len(damaged) // 2] ^= 0xFF
            frame = bytes(damaged)
        self._file.write(frame)
        self._file.flush()
        if kind == "fsync":
            METRICS.inc("durability.faults_injected")
            METRICS.inc("durability.fsync_failures")
            return
        if self._fsync:
            try:
                os.fsync(self._file.fileno())
            except OSError:
                # A failed sync leaves the record buffered, not lost: it
                # survives unless the machine dies in the window, and
                # recovery is prefix-consistent either way. Count it and
                # keep serving.
                METRICS.inc("durability.fsync_failures")

    def truncate(self) -> None:
        """Drop every record (the checkpoint now owns the history)."""
        self._file.close()
        self._file = open(self.path, "wb")

    def sync(self) -> None:
        self._file.flush()
        try:
            os.fsync(self._file.fileno())
        except OSError:
            METRICS.inc("durability.fsync_failures")

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
