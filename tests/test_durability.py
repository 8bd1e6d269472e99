"""Durable sessions: WAL framing, checkpoint/replay, crash recovery.

Contracts under test:

- **WAL framing** — ``read_wal`` trusts exactly the prefix of intact
  frames and reports why it stopped (torn header/record, CRC mismatch,
  garbage length, non-dict payload); it never raises for damage;
- **write-fault injection** — the seeded policy deterministically tears,
  corrupts, or fails-to-sync chosen appends, and recovery absorbs each;
- **checkpoint + stitching** — a checkpoint is a session snapshot written
  atomically, stale pre-checkpoint log records are skipped, sequence gaps
  drop the tail, and a damaged, foreign or unloadable snapshot counts as
  corrupt without ever raising;
- **snapshot oracle** — replay from empty stays the reference: a session
  recovered from snapshot + tail answers every later action exactly like
  one rebuilt by replaying the whole history (a format-1 root, the action
  list older builds wrote, recovers through the same replay path);
- **record/replay bit-identity** — a fresh session replaying the logged
  actions reaches the same :func:`state_digest` as the live session,
  including RNG stream position (later live actions still match);
- **parity** — a recorder is pure observation: recording a session
  changes nothing, and a manager with no durability root never attaches
  one;
- **cross-process replay** — a recorded Section-8 task recovers to the
  live digest in fresh interpreters under different ``PYTHONHASHSEED``s,
  and a snapshot written in one interpreter continues the task in
  another;
- **crash property** (hypothesis) — a random usersim-style action
  sequence, killed at an arbitrary log byte (truncation or bit flip),
  recovers to exactly the state after some prefix of its actions, with
  or without a snapshot before the cut.
"""

from __future__ import annotations

import base64
import hashlib
import inspect
import json
import os
import pickle
import random
import stat
import struct
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Browser, CopyCatSession, SpreadsheetApp, build_scenario
from repro.core.session import CopyCatSession as SessionClass
from repro.durability import (
    DURABILITY,
    UNRECORDED,
    DurabilityStore,
    InjectedWalFault,
    SerializationError,
    SessionRecorder,
    WAL_FAULTS,
    WalFaultPolicy,
    WalFaultSpec,
    WalWriter,
    apply_action,
    attach_recorder,
    canonical_json,
    digest_hash,
    encode_action,
    encode_frame,
    read_wal,
    recordable_actions,
    recover_session,
    replay,
    state_digest,
)
from repro.durability import snapshot
from repro.durability.store import tenant_dirname
from repro.substrate.documents import CellRange
from repro.substrate.relational.relation import Relation
from repro.substrate.relational.schema import PLACE
from repro.errors import CopyCatError
from repro.learning.model.seed import builtin_types
from repro.obs import METRICS, render_summary

from .reference_durability import checkpoint_bytes

LABELS = ["Name", "Street", "City"]


def build_world():
    return build_scenario(seed=5, n_shelters=6, noise=1)


def new_session(world, seed=1):
    return CopyCatSession(catalog=world.catalog, seed=seed)


def session_hash(session):
    return digest_hash(state_digest(session))


class Capturing(SessionRecorder):
    """A recorder that also keeps every record, checkpointed or not.

    ``history`` holds only the tail since the last checkpoint; an oracle
    replaying from empty needs the whole history.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    @contextmanager
    def action(self, name, payload):
        with super().action(name, payload) as record:
            if record is not None:
                self.records.append(dict(record))
            yield record


def checkpoint_header(path):
    """The parsed header line of a checkpoint file."""
    header, _payload = snapshot.read_header(Path(path).read_bytes())
    return header


@contextmanager
def metrics_on():
    METRICS.enable()
    METRICS.reset()
    try:
        yield METRICS
    finally:
        METRICS.reset()
        METRICS.disable()


class Driver:
    """One top-level (recorded) session call per :meth:`step`.

    The first nine steps are the Figure-1 import script (paste two
    examples, accept the generalization, label, commit, start
    integration, ask for suggestions); every later step is drawn by a
    seeded RNG from the currently-valid menu, the way
    :class:`repro.core.usersim.ScpUser` mixes accepts, rejects, trust
    feedback, and edits. Deterministic end to end: re-running a driver
    with the same seeds replays the identical call sequence.
    """

    def __init__(self, session, world, seed=0):
        self.session = session
        self.rng = random.Random(seed)
        self.browser = Browser(session.clipboard, world.website)
        self.browser.navigate(world.list_urls()[0])
        listing = self.browser.page.dom.find("table", "listing")
        self.records = [n for n in listing.children if "record" in n.css_classes]
        self.copied = 0
        self._script = iter(self._scripted_prefix())

    def _scripted_prefix(self):
        s = self.session
        yield self._paste
        yield self._paste
        yield lambda: s.accept_row_suggestions()
        for index, label in enumerate(LABELS):
            yield lambda i=index, n=label: s.label_column(i, n)
        yield lambda: s.commit_source()
        yield lambda: s.start_integration("Shelters")
        yield lambda: s.column_suggestions(k=4)

    def _paste(self):
        self.browser.copy_record(self.records[self.copied], "Shelters")
        self.copied += 1
        self.session.paste()

    def _random_op(self):
        s = self.session
        rng = self.rng
        ops = [lambda: s.column_suggestions(k=4)]
        n_suggestions = len(s._column_suggestions)  # noqa: SLF001 - guard only
        if n_suggestions:
            ops += [
                lambda: s.preview_column(rng.randrange(n_suggestions)),
                lambda: s.accept_column(rng.randrange(n_suggestions)),
                lambda: s.reject_column(0),
            ]
        tab = s.workspace.current_tab
        table = s.workspace.tab(tab) if tab else None
        if table is not None and table.n_rows:
            row = rng.randrange(table.n_rows)
            ops += [
                lambda: s.promote_row(row),
                lambda: s.demote_row(row),
                lambda: s.edit_cell(row, rng.randrange(len(table.columns)), f"v{rng.randrange(50)}"),
            ]
        ops += [
            lambda: s.exit_cleaning_mode() if s.cleaning_mode else s.enter_cleaning_mode(),
            lambda: s.undo(),
        ]
        if s._query is not None:  # noqa: SLF001 - guard only
            ops.append(lambda: s.save_view(f"V{rng.randrange(1000)}"))
        return rng.choice(ops)

    def step(self):
        op = next(self._script, None) or self._random_op()
        try:
            op()
        except InjectedWalFault:
            raise
        except CopyCatError:
            pass  # deterministic failures are part of the history


def drive_scripted(session, world, n_extra=0, seed=0):
    """The nine-step import plus *n_extra* random ops."""
    driver = Driver(session, world, seed=seed)
    for _ in range(9 + n_extra):
        driver.step()
    return driver


# ------------------------------------------------------------------ WAL framing
class TestWalFraming:
    def _write(self, path, payloads):
        with WalWriter(path) as writer:
            for payload in payloads:
                writer.append(payload)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        payloads = [{"seq": i, "name": "op", "args": {"i": i}} for i in range(5)]
        self._write(path, payloads)
        result = read_wal(path)
        assert result.records == payloads
        assert result.stop_reason is None
        assert result.valid_bytes == path.stat().st_size

    def test_missing_file_is_empty(self, tmp_path):
        result = read_wal(tmp_path / "absent.log")
        assert result.records == [] and result.stop_reason is None

    def test_torn_header(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, [{"seq": 0}])
        good = path.stat().st_size
        with open(path, "ab") as f:
            f.write(b"\x07\x00\x00")  # 3 of 8 header bytes
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0]
        assert result.stop_reason == "torn-header"
        assert result.valid_bytes == good

    def test_torn_record(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, [{"seq": 0}, {"seq": 1}])
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # cut the last payload short
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0]
        assert result.stop_reason == "torn-record"

    def test_crc_mismatch(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, [{"seq": 0}, {"seq": 1}])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # rot one payload byte of the last frame
        path.write_bytes(bytes(data))
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0]
        assert result.stop_reason == "crc-mismatch"

    def test_bad_length_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, [{"seq": 0}])
        with open(path, "ab") as f:
            f.write(struct.pack("<II", 2**31, 0) + b"garbage")
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0]
        assert result.stop_reason == "bad-length"

    def test_non_dict_payload_rejected(self, tmp_path):
        import zlib

        path = tmp_path / "wal.log"
        data = b"[1,2]"  # valid JSON, not an action dict
        frame = struct.pack("<II", len(data), zlib.crc32(data) & 0xFFFFFFFF) + data
        path.write_bytes(frame)
        result = read_wal(path)
        assert result.records == [] and result.stop_reason == "bad-payload"

    def test_encode_frame_is_canonical(self):
        assert encode_frame({"b": 1, "a": 2}) == encode_frame({"a": 2, "b": 1})


# ----------------------------------------------------------- fault injection
class TearAt(WalFaultPolicy):
    """Tear exactly one chosen append (everything else clean)."""

    def __init__(self, at, kind="torn"):
        super().__init__(seed=0)
        self.at = at
        self.kind = kind

    def draw(self, tenant, op_index):
        return self.kind if op_index == self.at else None


class TestWriteFaults:
    def test_policy_draws_are_deterministic(self):
        spec = WalFaultSpec.ambient(0.3)
        a = WalFaultPolicy(seed=11, spec=spec)
        b = WalFaultPolicy(seed=11, spec=spec)
        draws = [a.draw("t", i) for i in range(200)]
        assert draws == [b.draw("t", i) for i in range(200)]
        assert any(d is not None for d in draws)
        assert any(d is None for d in draws)
        c = WalFaultPolicy(seed=12, spec=spec)
        assert draws != [c.draw("t", i) for i in range(200)]

    def test_ambient_spec_splits_rate(self):
        spec = WalFaultSpec.ambient(0.3)
        assert spec.torn_rate == spec.corrupt_rate == spec.fsync_fail_rate
        assert abs(spec.torn_rate - 0.1) < 1e-12

    def test_torn_append_raises_and_leaves_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        writer = WalWriter(path, faults=TearAt(2), tenant="t")
        writer.append({"seq": 0})
        writer.append({"seq": 1})
        with pytest.raises(InjectedWalFault):
            writer.append({"seq": 2})
        writer.close()
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0, 1]
        assert result.stop_reason in ("torn-record", "torn-header", "crc-mismatch")

    def test_corrupt_append_is_silent_bit_rot(self, tmp_path):
        path = tmp_path / "wal.log"
        with WalWriter(path, faults=TearAt(1, kind="corrupt"), tenant="t") as writer:
            for seq in range(4):  # the writer never notices
                writer.append({"seq": seq})
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0]
        assert result.stop_reason == "crc-mismatch"

    def test_fsync_failure_keeps_record(self, tmp_path):
        path = tmp_path / "wal.log"
        with metrics_on() as m:
            with WalWriter(path, fsync=True, faults=TearAt(0, kind="fsync"), tenant="t") as w:
                w.append({"seq": 0})
            assert m.counter_value("durability.fsync_failures") == 1
            assert m.counter_value("durability.faults_injected") == 1
        result = read_wal(path)
        assert [r["seq"] for r in result.records] == [0]

    def test_injector_arms_and_restores(self):
        assert WAL_FAULTS.policy is None
        policy = WalFaultPolicy(seed=1, spec=WalFaultSpec.ambient(0.5))
        with WAL_FAULTS.injected(policy):
            assert WAL_FAULTS.policy is policy
        assert WAL_FAULTS.policy is None


# ------------------------------------------------------- checkpoint + stitch
def fake_actions(n, start=0):
    return [{"seq": i, "name": "noop", "args": {}} for i in range(start, start + n)]


def blank_session():
    """A session with nothing in it: the cheapest thing to snapshot."""
    return CopyCatSession(seed=1)


class TestStoreRecovery:
    def test_tenant_dirnames_cannot_collide(self):
        assert tenant_dirname("a/b") != tenant_dirname("a_b")
        assert tenant_dirname("") == tenant_dirname("")

    def test_checkpoint_roundtrip_and_truncation(self, tmp_path):
        store = DurabilityStore(tmp_path)
        for record in fake_actions(3):
            store.append("t", record)
        assert store.write_checkpoint("t", blank_session(), n_actions=3)
        store.truncate_wal("t")
        store.append("t", fake_actions(1, start=3)[0])
        store.close()
        header = checkpoint_header(store.checkpoint_path("t"))
        assert header["format"] == 2 and header["n_actions"] == 3 and header["tenant"] == "t"
        recovered = DurabilityStore(tmp_path).recover("t")
        # The snapshot covers seq 0..2; only the log tail is left to replay.
        assert [a["seq"] for a in recovered.actions] == [3]
        assert recovered.has_snapshot and recovered.next_seq == 4
        assert recovered.from_checkpoint == 3 and recovered.from_wal == 1

    def test_stale_pre_checkpoint_records_skipped(self, tmp_path):
        # Crash between checkpoint rename and log truncation: the log
        # still holds records the checkpoint already owns.
        store = DurabilityStore(tmp_path)
        for record in fake_actions(4):
            store.append("t", record)
        assert store.write_checkpoint("t", blank_session(), n_actions=2)
        store.close()
        recovered = DurabilityStore(tmp_path).recover("t")
        assert recovered.from_checkpoint == 2 and recovered.from_wal == 2
        assert [a["seq"] for a in recovered.actions] == [2, 3]

    def test_seq_gap_drops_tail(self, tmp_path):
        store = DurabilityStore(tmp_path)
        store.append("t", {"seq": 0, "name": "noop", "args": {}})
        store.append("t", {"seq": 2, "name": "noop", "args": {}})  # gap: 1 missing
        store.append("t", {"seq": 3, "name": "noop", "args": {}})
        store.close()
        with metrics_on() as m:
            recovered = DurabilityStore(tmp_path).recover("t")
            assert m.counter_value("durability.recovery_seq_gaps") == 1
        assert [a["seq"] for a in recovered.actions] == [0]
        assert recovered.stop_reason == "seq-gap"

    def test_corrupt_checkpoint_contributes_nothing(self, tmp_path):
        store = DurabilityStore(tmp_path)
        for record in fake_actions(2):
            store.append("t", record)
        store.close()
        path = DurabilityStore(tmp_path).checkpoint_path("t")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json", encoding="utf-8")
        with metrics_on() as m:
            recovered = DurabilityStore(tmp_path).recover("t")
            assert m.counter_value("durability.checkpoint_corrupt") == 1
        # The log starts at seq 0, so it alone still replays.
        assert [a["seq"] for a in recovered.actions] == [0, 1]

    def test_checkpoint_write_failure_is_absorbed(self, tmp_path, monkeypatch):
        store = DurabilityStore(tmp_path)
        monkeypatch.setattr(
            "repro.durability.store.os.replace",
            lambda *a: (_ for _ in ()).throw(OSError("disk full")),
        )
        with metrics_on() as m:
            assert store.write_checkpoint("t", blank_session(), n_actions=2) is False
            assert m.counter_value("durability.fsync_failures") == 1
        assert not store.checkpoint_path("t").exists()

    @pytest.mark.parametrize(
        "payload",
        [
            {"format": 1, "n_actions": 2, "actions": [1, 2]},
            {"format": 1, "n_actions": 1, "actions": {"0": {"seq": 0, "name": "noop", "args": {}}}},
            {"format": 1, "n_actions": 1, "actions": [{"seq": 5, "name": "noop", "args": {}}]},
            {"format": 1, "n_actions": 3, "actions": fake_actions(1)},
            {"format": 2, "n_actions": 1, "actions": fake_actions(1)},
            {"format": 1, "n_actions": 1, "actions": [{"seq": 0, "name": 7, "args": {}}]},
            {"format": 1, "n_actions": 1, "actions": [{"seq": 0, "name": "noop", "args": []}]},
            [fake_actions(1)],
        ],
        ids=[
            "non-dict-actions", "actions-dict", "seq-not-index", "n-actions-mismatch",
            "wrong-format", "name-not-str", "args-not-dict", "not-an-object",
        ],
    )
    def test_misshapen_checkpoint_contributes_nothing(self, tmp_path, payload):
        store = DurabilityStore(tmp_path)
        for record in fake_actions(2):
            store.append("t", record)
        store.close()
        path = store.checkpoint_path("t")
        path.write_text(json.dumps(payload), encoding="utf-8")
        with metrics_on() as m:
            recovered = DurabilityStore(tmp_path).recover("t")
            assert m.counter_value("durability.checkpoint_corrupt") == 1
        # Only the log is trusted, and it starts at seq 0.
        assert recovered.actions == fake_actions(2)
        assert recovered.from_checkpoint == 0 and recovered.from_wal == 2

    @pytest.mark.parametrize("actions", [[1, 2], {"0": 1}])
    def test_misshapen_checkpoint_does_not_break_recover_session(self, tmp_path, actions):
        store = DurabilityStore(tmp_path)
        path = store.checkpoint_path("t")
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": 1, "n_actions": 2, "actions": actions}), encoding="utf-8")
        recorder, report = recover_session(new_session(build_world()), "t", store)
        store.close()
        assert report is None and recorder.history == [] and recorder.next_seq == 0

    def _recorded(self, tmp_path, n=3):
        store = DurabilityStore(tmp_path)
        recorder = attach_recorder(blank_session(), SessionRecorder("t", store, checkpoint_interval=0))
        for _ in range(n):
            with recorder.action("noop", {}):
                pass
        return store, recorder

    def test_checkpoint_syncs_directory_before_truncating(self, tmp_path, monkeypatch):
        store, recorder = self._recorded(tmp_path)
        events = []
        real_fsync, real_replace, real_truncate = os.fsync, os.replace, store.truncate_wal

        def fsync(fd):
            events.append("fsync-dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync-file")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        def truncate(tenant):
            events.append("truncate")
            real_truncate(tenant)

        monkeypatch.setattr("repro.durability.store.os.fsync", fsync)
        monkeypatch.setattr("repro.durability.store.os.replace", replace)
        monkeypatch.setattr(store, "truncate_wal", truncate)
        assert recorder.checkpoint()
        assert events == ["fsync-file", "replace", "fsync-dir", "truncate"]
        store.close()

    def test_failed_directory_sync_keeps_the_log(self, tmp_path, monkeypatch):
        store, recorder = self._recorded(tmp_path)
        real_fsync = os.fsync

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("injected directory fsync failure")
            real_fsync(fd)

        monkeypatch.setattr("repro.durability.store.os.fsync", fsync)
        with metrics_on() as m:
            assert recorder.checkpoint() is False
            assert m.counter_value("durability.fsync_failures") == 1
        monkeypatch.undo()
        assert recorder.checkpoints == 0 and recorder.since_checkpoint == 3
        assert [r["seq"] for r in read_wal(store.wal_path("t")).records] == [0, 1, 2]
        store.close()
        # The rename landed before the directory sync failed, so the new
        # snapshot covers what the kept log holds: nothing is replayed
        # twice, nothing is lost.
        recovered = DurabilityStore(tmp_path).recover("t")
        assert recovered.has_snapshot and recovered.from_checkpoint == 3
        assert recovered.actions == [] and recovered.next_seq == 3


# ------------------------------------------------------ record/replay parity
class TestRecordReplay:
    def test_recording_is_one_record_per_toplevel_call(self):
        world = build_world()
        session = new_session(world)
        recorder = attach_recorder(session, SessionRecorder())
        drive_scripted(session, world)
        names = [a["name"] for a in recorder.history]
        assert len(names) == 9
        assert names[:3] == ["paste", "paste", "accept_row_suggestions"]
        assert names[-1] == "column_suggestions"

    def test_nested_calls_are_not_recorded(self):
        world = build_world()
        session = new_session(world)
        recorder = attach_recorder(session, SessionRecorder())
        drive_scripted(session, world)
        before = len(recorder.history)
        # accept_column internally previews / recomputes suggestions;
        # only the outer user action may appear in the log.
        if session._column_suggestions:  # noqa: SLF001
            session.accept_column(0)
            assert [a["name"] for a in recorder.history[before:]] == ["accept_column"]

    def test_replay_reaches_identical_digest(self):
        world = build_world()
        session = new_session(world)
        recorder = attach_recorder(session, SessionRecorder())
        drive_scripted(session, world, n_extra=8, seed=3)
        replica = new_session(build_world())
        report = replay(replica, recorder.history)
        assert report.applied == len(recorder.history)
        assert session_hash(replica) == session_hash(session)

    def test_replay_restores_rng_stream_position(self):
        # After replay, the *next* live action must draw the same random
        # values the original session would have — run one more action on
        # both and compare again.
        world = build_world()
        session = new_session(world)
        recorder = attach_recorder(session, SessionRecorder())
        drive_scripted(session, world, n_extra=5, seed=4)
        replica = new_session(build_world())
        attach_recorder(replica, SessionRecorder())
        replay(replica, recorder.history)
        for live in (session, replica):
            try:
                live.column_suggestions(k=4, refresh=True)
            except CopyCatError:
                pass
        assert session_hash(replica) == session_hash(session)

    def test_recorder_is_pure_observation(self):
        world_a, world_b = build_world(), build_world()
        plain = new_session(world_a)
        observed = new_session(world_b)
        attach_recorder(observed, SessionRecorder())
        drive_scripted(plain, world_a, n_extra=6, seed=2)
        drive_scripted(observed, world_b, n_extra=6, seed=2)
        assert session_hash(plain) == session_hash(observed)

    def test_unrecorded_methods_stay_unrecorded(self):
        names = recordable_actions()
        assert not set(UNRECORDED) & set(names)
        for name in names:
            method = getattr(SessionClass, name)
            assert hasattr(method, "__wrapped__"), name
        for name in ("paste", "commit_source", "accept_column", "undo", "resync_source"):
            assert name in names

    def test_replay_counts_deterministic_errors(self):
        world = build_world()
        session = new_session(world)
        recorder = attach_recorder(session, SessionRecorder())
        with pytest.raises(CopyCatError):
            session.start_integration("NoSuchSource")
        assert [a["name"] for a in recorder.history] == ["start_integration"]
        replica = new_session(build_world())
        report = replay(replica, recorder.history)
        assert report.applied == 1 and not report.clean
        assert report.errors[0][1] == "start_integration"


# ------------------------------------------------------------ action codec
#: One call per action whose codec is derived from the method signature,
#: and the exact payload a log holds for it. Logs already on disk must
#: replay unchanged, so these payloads may not change.
GENERIC_GOLDEN = [
    ("reject_row_suggestions", (), {"tab": "T2"}, {"tab": "T2"}),
    ("label_column", (0, "Name"), {}, {"col": 0, "name": "Name", "tab": None}),
    ("commit_source", (), {"name": "Shelters"}, {"tab": None, "name": "Shelters"}),
    ("start_integration", ("Shelters",), {}, {"source": "Shelters", "tab": None}),
    ("set_service_level", (), {}, {"level": "normal"}),
    ("column_suggestions", (), {"k": 4, "refresh": True}, {"k": 4, "refresh": True}),
    ("preview_column", (2,), {}, {"index": 2}),
    ("choose_alternative", (3, 1), {}, {"row": 3, "choice": 1}),
    ("accept_column", (), {}, {"index": None}),
    ("reject_column", (1,), {}, {"index": 1}),
    ("promote_row", (2,), {"tab": "T1"}, {"row": 2, "tab": "T1"}),
    (
        "demote_row", (4,), {"distrust_base_rows": True},
        {"row": 4, "tab": None, "distrust_base_rows": True},
    ),
    ("edit_cell", (1, 2, "Creek"), {}, {"row": 1, "col": 2, "value": "Creek", "tab": None}),
    ("enter_cleaning_mode", (), {}, {}),
    ("exit_cleaning_mode", (), {}, {}),
    ("undo", (), {}, {}),
    ("save_view", ("v",), {}, {"name": "v"}),
    ("refresh_view", (), {"name": "v"}, {"name": "v"}),
]


def bound_call(name, args, kwargs):
    """A call's arguments as the method binds them, defaults filled in."""
    bound = inspect.signature(getattr(SessionClass, name)).bind(None, *args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class TestActionCodec:
    @pytest.mark.parametrize(
        ("name", "args", "kwargs", "payload"), GENERIC_GOLDEN, ids=[row[0] for row in GENERIC_GOLDEN]
    )
    def test_generic_payload_is_golden_and_replays_the_call(self, name, args, kwargs, payload):
        encoded = encode_action(name, mock.MagicMock(spec=SessionClass), args, kwargs)
        assert canonical_json(encoded) == canonical_json(payload)
        session = mock.MagicMock(spec=SessionClass)
        apply_action(session, name, json.loads(canonical_json(encoded)))
        replayed = getattr(session, name).call_args
        assert bound_call(name, replayed.args, replayed.kwargs) == bound_call(name, args, kwargs)

    def test_golden_table_covers_every_generic_action(self):
        hand_written = {
            "paste", "resync_source", "set_column_type", "add_derived_column",
            "add_link_example", "accept_row_suggestions", "union_sources",
        }
        assert {row[0] for row in GENERIC_GOLDEN} == set(recordable_actions()) - hand_written
        assert len(recordable_actions()) == 25

    @pytest.mark.parametrize(
        ("call", "kwargs"),
        [(("label_column", (0,)), {}), (("edit_cell", (0, 0, "x")), {"bogus": 1})],
        ids=["missing-argument", "unknown-keyword"],
    )
    def test_bad_call_raises_before_anything_is_written(self, tmp_path, call, kwargs):
        name, args = call
        world = build_world()
        session = new_session(world)
        with DurabilityStore(tmp_path) as store:
            recorder, _ = recover_session(session, "t", store)
            drive_scripted(session, world)
            history = list(recorder.history)
            wal = store.wal_path("t").read_bytes()
            with pytest.raises(TypeError):
                getattr(session, name)(*args, **kwargs)
            assert recorder.history == history
            assert store.wal_path("t").read_bytes() == wal

    @pytest.mark.parametrize("name", ["close", "explain", "__init__"])
    def test_replaying_an_unrecorded_name_calls_nothing(self, name):
        session = mock.MagicMock(spec=SessionClass)
        with pytest.raises(SerializationError, match=repr(name)):
            apply_action(session, name, {})
        assert session.mock_calls == []


# ------------------------------------------------- store-backed sessions
class TestDurableSessions:
    def test_recover_session_roundtrip(self, tmp_path):
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        # The default interval, pinned: no checkpoint before the end.
        recorder, report = recover_session(session, "alice", store, checkpoint_interval=64)
        assert report is None  # brand-new tenant: nothing to replay
        drive_scripted(session, world, n_extra=6, seed=9)
        live = session_hash(session)
        store.close()

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recorder2, report2 = recover_session(restored, "alice", store2)
        assert report2 is not None and report2.applied == len(recorder.history)
        assert recorder2.since_checkpoint == report2.applied  # all tail, no checkpoint
        assert session_hash(restored) == live

    def test_auto_checkpoint_compacts_and_recovers(self, tmp_path):
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "bob", store, checkpoint_interval=4)
        drive_scripted(session, world, n_extra=5, seed=6)
        assert recorder.checkpoints >= 2
        assert recorder.since_checkpoint < 4
        live = session_hash(session)
        store.close()
        header = checkpoint_header(store.checkpoint_path("bob"))
        assert header["format"] == 2 and header["n_actions"] >= 8
        assert header["n_actions"] + recorder.since_checkpoint == recorder.next_seq == 14

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            _, report = recover_session(restored, "bob", store2)
        # Only the tail after the last snapshot is replayed.
        assert (report.applied if report else 0) == recorder.since_checkpoint
        assert session_hash(restored) == live

    def test_torn_write_recovers_state_as_if_action_completed(self, tmp_path):
        # Kill the "process" mid-append of action #6. Write-ahead order
        # means the frame for #6 is damaged, so recovery replays 0..5 —
        # and the recovered state matches an uninterrupted 6-action run.
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        with WAL_FAULTS.injected(TearAt(6)):
            recover_session(session, "carol", store, checkpoint_interval=64)
            driver = Driver(session, world, seed=0)
            with pytest.raises(InjectedWalFault):
                for _ in range(9):
                    driver.step()
        store.close()

        reference_world = build_world()
        reference = new_session(reference_world)
        ref_driver = Driver(reference, reference_world, seed=0)
        for _ in range(6):
            ref_driver.step()

        restored = new_session(build_world())
        with metrics_on() as m, DurabilityStore(tmp_path) as store2:
            _, report = recover_session(restored, "carol", store2)
            assert m.counter_value("durability.recovery_torn_records") == 1
            assert m.counter_value("durability.sessions_recovered") == 1
        assert report is not None and report.applied == 6
        assert session_hash(restored) == session_hash(reference)

    def test_ambient_fsync_faults_do_not_lose_history(self, tmp_path):
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        policy = WalFaultPolicy(seed=3, spec=WalFaultSpec(fsync_fail_rate=0.5))
        with metrics_on() as m, WAL_FAULTS.injected(policy):
            recover_session(session, "dave", store)
            drive_scripted(session, world, n_extra=4, seed=1)
            assert m.counter_value("durability.fsync_failures") > 0
        live = session_hash(session)
        store.close()
        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recover_session(restored, "dave", store2)
        assert session_hash(restored) == live

    def test_disabled_layer_attaches_nothing(self, tmp_path, monkeypatch):
        """With no durability root the layer is off: no recorder, no files."""
        from repro.server import SessionManager, SharedBase

        monkeypatch.chdir(tmp_path)
        world = build_world()
        with DURABILITY.overridden(root=""):
            manager = SessionManager(SharedBase(world.catalog))
            assert manager.store is None
            assert manager.session("t").durability is None
            manager.shutdown()
        assert list(tmp_path.iterdir()) == []  # no files ever touched


# ------------------------------------------------------ snapshot recovery
def output_key(value):
    """A comparable rendering of what one session call returned."""
    if isinstance(value, Relation):
        return ("relation", value.name, repr(value.schema), [list(row.values) for row in value])
    text = repr(value)
    assert " at 0x" not in text, text
    return text


def run_op(op):
    try:
        return output_key(op())
    except InjectedWalFault:
        raise
    except CopyCatError as exc:
        return ("error", type(exc).__name__, str(exc))


def record_with_snapshots(root, *, n_extra, seed, interval, tenant="t"):
    """Drive a store-backed session; returns (world, session, recorder)."""
    world = build_world()
    session = new_session(world)
    store = DurabilityStore(root)
    recorder = attach_recorder(session, Capturing(tenant, store, checkpoint_interval=interval))
    drive_scripted(session, world, n_extra=n_extra, seed=seed)
    store.close()
    return world, session, recorder


def damage_payload(data):
    header, payload = snapshot.read_header(data)
    middle = len(payload) // 2
    return canonical_json(header).encode() + b"\n" + payload[:middle] + bytes([payload[middle] ^ 0xFF]) + payload[middle + 1:]


def reheader(data, **changes):
    header, payload = snapshot.read_header(data)
    return canonical_json({**header, **changes}).encode() + b"\n" + payload


class Dangling:
    """Pickles as a shared reference no session can resolve."""

    def __reduce__(self):
        return snapshot._shared, (("service", "NoSuchService"),)


def repickle(data, obj):
    """A snapshot whose digest checks out but whose payload is *obj*."""
    payload = pickle.dumps(obj)
    return reheader(data, sha256=hashlib.sha256(payload).hexdigest()).partition(b"\n")[0] + b"\n" + payload


class TestSnapshotRecovery:
    @pytest.mark.parametrize("driver_seed", [0, 3, 7])
    def test_snapshot_and_full_replay_agree_step_by_step(self, tmp_path, driver_seed):
        """The oracle: replay from empty stays the reference. A session
        recovered from its snapshot + log tail and one rebuilt by replaying
        the whole history must answer the same continuation identically —
        every output and every digest, which also pins the learned
        signatures, MIRA history and RNG position a digest alone misses."""
        world, live, recorder = record_with_snapshots(tmp_path, n_extra=12, seed=driver_seed, interval=5)
        assert recorder.checkpoints == 4 and recorder.since_checkpoint == 1
        store = DurabilityStore(tmp_path)
        from_snapshot = new_session(build_world())
        _, report = recover_session(from_snapshot, "t", store, checkpoint_interval=4)
        assert report is not None and report.applied == 1
        from_empty = new_session(build_world())
        assert replay(from_empty, recorder.records).applied == 21
        assert session_hash(from_snapshot) == session_hash(from_empty) == session_hash(live)

        drivers = []
        for session in (from_snapshot, from_empty, live):
            driver = Driver(session, world, seed=100 + driver_seed)
            driver._script = iter(())  # the import is history; random ops only
            drivers.append(driver)
        live.durability = None  # the recorder's store is closed
        for step in range(15):
            outputs = [run_op(driver._random_op()) for driver in drivers]
            assert outputs[0] == outputs[1] == outputs[2], step
            hashes = {session_hash(driver.session) for driver in drivers}
            assert len(hashes) == 1, step
        assert from_snapshot.durability.checkpoints >= 3  # snapshots taken mid-continuation too
        store.close()

    def test_snapshot_with_empty_tail_counts_as_a_recovery(self, tmp_path):
        _, live, recorder = record_with_snapshots(tmp_path, n_extra=3, seed=1, interval=12)
        assert recorder.since_checkpoint == 0
        with metrics_on() as m, DurabilityStore(tmp_path) as store:
            restored = new_session(build_world())
            recovered = store.recover("t", restored)
            assert m.counter_value("durability.sessions_recovered") == 1
        assert recovered.actions == [] and recovered.from_checkpoint == 12
        assert session_hash(restored) == session_hash(live)

    def test_snapshot_with_empty_tail_is_a_truthy_recovery(self, tmp_path):
        record_with_snapshots(tmp_path, n_extra=3, seed=1, interval=12)
        with DurabilityStore(tmp_path) as store:
            recovered = store.recover("t")
            assert recovered.has_snapshot and recovered.actions == []
            assert recovered
            assert not store.recover("nobody")

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],
            lambda data: data[: data.index(b"\n") // 2],
            lambda data: data[: data.index(b"\n") + 1],
            damage_payload,
            lambda data: reheader(data, python="2.7"),
            lambda data: reheader(data, tenant="mallory"),
            lambda data: reheader(data, n_actions=-1),
            lambda data: reheader(data, format=3),
            lambda data: repickle(data, ["not", "a", "state", "dict"]),
            lambda data: repickle(data, {"catalog": Dangling()}),
            lambda data: repickle(data, {"catalog": None}),
            lambda data: reheader(data, sha256=hashlib.sha256(b"junk").hexdigest()).partition(b"\n")[0] + b"\njunk",
        ],
        ids=[
            "truncated-payload", "truncated-header", "header-only", "flipped-payload-byte",
            "foreign-python", "foreign-tenant", "negative-n-actions", "unknown-format",
            "not-a-state-dict", "dangling-reference", "other-build-state", "garbage-with-valid-digest",
        ],
    )
    def test_damaged_snapshot_contributes_nothing(self, tmp_path, damage):
        record_with_snapshots(tmp_path, n_extra=3, seed=1, interval=8)
        path = DurabilityStore(tmp_path).checkpoint_path("t")
        path.write_bytes(damage(path.read_bytes()))
        fresh = session_hash(new_session(build_world()))
        restored = new_session(build_world())
        with metrics_on() as m, DurabilityStore(tmp_path) as store:
            recorder, report = recover_session(restored, "t", store)
            assert m.counter_value("durability.checkpoint_corrupt") == 1
            assert m.counter_value("durability.recovery_seq_gaps") == 1
        # The log continues at seq 8, which nothing trusted reaches: the
        # tenant restarts empty rather than from a guess.
        assert report is None and recorder.next_seq == 0
        assert session_hash(restored) == fresh

    def test_format1_root_recovers_to_the_same_digest(self, tmp_path):
        """A root an older build left — an action-list checkpoint plus the
        log after it — replays as one long tail, and the next checkpoint
        turns it into a snapshot."""
        world = build_world()
        session = new_session(world)
        recorder = attach_recorder(session, Capturing())
        drive_scripted(session, world, n_extra=6, seed=2)
        history, live = recorder.records, session_hash(session)
        store = DurabilityStore(tmp_path)
        path = store.checkpoint_path("t")
        path.parent.mkdir(parents=True)
        path.write_bytes(checkpoint_bytes("t", history[:9], seed=1))
        for record in history[7:]:  # two stale records, as after a crash before truncation
            store.append("t", record)
        store.close()

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recorder2, report = recover_session(restored, "t", store2)
            assert report.applied == len(history) == recorder2.next_seq == 15
            assert session_hash(restored) == live
            assert recorder2.checkpoint()
        header = checkpoint_header(path)
        assert header["format"] == 2 and "seed" not in header
        # Older format-2 headers also carried a seed; the snapshot still loads.
        for changes in ({}, {"seed": 7}):
            path.write_bytes(reheader(path.read_bytes(), **changes))
            again = new_session(build_world())
            with DurabilityStore(tmp_path) as store3:
                _, report3 = recover_session(again, "t", store3)
            assert report3 is None and session_hash(again) == live


# --------------------------------------------------- cross-process replay
def build_demo_world():
    return build_scenario(seed=5, n_shelters=10, noise=1)


def drive_demo_task(session, world):
    """The Section-8 task: import shelters and contacts, then accept the
    zip, geocode and contact completions (each runs MIRA updates)."""
    import_demo_sources(session, world)
    integrate_demo_columns(session)


def import_demo_sources(session, world):
    """The task's first 16 actions: import both sources, start integrating."""
    browser = Browser(session.clipboard, world.website)
    browser.navigate(world.list_urls()[0])
    listing = browser.page.dom.find("table", "listing")
    records = [n for n in listing.children if n.tag == "tr" and "record" in n.css_classes]
    for record in records[:2]:
        browser.copy_record(record, "Shelters")
        session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(LABELS):
        session.label_column(index, label)
    session.commit_source()
    sheet = SpreadsheetApp(session.clipboard, world.contacts_workbook)
    sheet.open_sheet()
    sheet.copy_range(CellRange(0, 0, 1, 3), source_name="Contacts")
    session.paste()
    session.accept_row_suggestions()
    for index, label in enumerate(["Shelter", "Contact", "Phone", "Address"]):
        session.label_column(index, label)
    session.set_column_type(0, PLACE, learn_from_values=False)
    session.commit_source()
    session.start_integration("Shelters")


def integrate_demo_columns(session):
    """The task's last 6 actions: preview and accept three completions."""
    for source, attrs in (("ZipcodeResolver", {"Zip"}), ("Geocoder", {"Lat", "Lon"}),
                          ("Contacts", {"Contact", "Phone"})):
        suggestions = session.column_suggestions(k=10)
        index = next(
            i for i, s in enumerate(suggestions)
            if s.source == source and attrs <= set(s.attribute_names)
        )
        session.preview_column(index)
        session.accept_column(index)


#: Recovers tenant "erin" from the store at argv[1] and prints its digest.
RECOVER_SCRIPT = """
import sys
from repro import CopyCatSession, build_scenario
from repro.durability import DurabilityStore, digest_hash, recover_session, state_digest

world = build_scenario(seed=5, n_shelters=10, noise=1)
session = CopyCatSession(catalog=world.catalog, seed=1)
with DurabilityStore(sys.argv[1]) as store:
    recover_session(session, "erin", store)
print(digest_hash(state_digest(session)))
"""


#: Phase "write" runs the first 16 actions of the Section-8 task for
#: tenant "erin" at argv[1], snapshotting after the 10th; phase
#: "continue" recovers snapshot + tail and runs the rest. Each prints its
#: digest.
SNAPSHOT_SCRIPT = """
import sys
from repro import CopyCatSession, build_scenario
from repro.durability import DurabilityStore, digest_hash, recover_session, state_digest
from tests.test_durability import import_demo_sources, integrate_demo_columns

world = build_scenario(seed=5, n_shelters=10, noise=1)
session = CopyCatSession(catalog=world.catalog, seed=1)
with DurabilityStore(sys.argv[1]) as store:
    recorder, report = recover_session(session, "erin", store, checkpoint_interval=10)
    if sys.argv[2] == "write":
        import_demo_sources(session, world)
        assert recorder.checkpoints == 1 and recorder.since_checkpoint == 6
    else:
        assert report.applied == 6 and recorder.next_seq == 16
        integrate_demo_columns(session)
print(digest_hash(state_digest(session)))
"""


BUILTINS_SCRIPT = """
import base64, pickle
from repro.learning.model.seed import builtin_types
print(base64.b64encode(pickle.dumps(builtin_types())).decode())
"""


def run_in_subprocess(script, hash_seed: str, *args) -> str:
    repo = Path(repro.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=f"{repo / 'src'}{os.pathsep}{repo}")
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


def recover_in_subprocess(root, hash_seed: str) -> str:
    return run_in_subprocess(RECOVER_SCRIPT, hash_seed, root)


class TestCrossProcessReplay:
    def test_recovery_digest_independent_of_hash_seed(self, tmp_path):
        # Crash recovery replays in a new process, whose hash seed differs
        # from the one that recorded the log: float sums over sets must
        # not follow set iteration order.
        world = build_demo_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recover_session(session, "erin", store)
        drive_demo_task(session, world)
        live = session_hash(session)
        store.close()
        digests = {seed: recover_in_subprocess(tmp_path, seed) for seed in ("0", "1")}
        assert digests == {"0": live, "1": live}

    def test_builtin_types_equal_under_any_hash_seed(self):
        # A snapshot names the built-in types it shares and the loading
        # process resolves the names against its own training, so every
        # process must train equal types, whatever its string hashing.
        here = builtin_types()
        for hash_seed in ("0", "1"):
            there = pickle.loads(base64.b64decode(run_in_subprocess(BUILTINS_SCRIPT, hash_seed)))
            assert there == here

    def test_snapshot_continues_under_another_hash_seed(self, tmp_path):
        # A snapshot pickled in one interpreter is loaded, extended by its
        # log tail and driven on in another whose string hashing differs:
        # the task must end where an uninterrupted in-memory run ends.
        world = build_demo_world()
        reference = new_session(world)
        drive_demo_task(reference, world)
        halfway = run_in_subprocess(SNAPSHOT_SCRIPT, "0", tmp_path, "write")
        assert checkpoint_header(DurabilityStore(tmp_path).checkpoint_path("erin"))["n_actions"] == 10
        assert halfway != session_hash(reference)
        assert run_in_subprocess(SNAPSHOT_SCRIPT, "1", tmp_path, "continue") == session_hash(reference)


# ------------------------------------------------------- checkpoint contents
class TestCheckpointBytes:
    """A checkpoint is a header line and a pickle of the session's state:
    it loads back to the same state, holds no action, and covers exactly
    the actions recorded so far."""

    def test_section8_task(self, tmp_path):
        world = build_demo_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "erin", store)
        drive_demo_task(session, world)
        assert recorder.checkpoint()
        store.close()
        data = store.checkpoint_path("erin").read_bytes()
        header, payload = snapshot.read_header(data)
        assert data == canonical_json(header).encode("utf-8") + b"\n" + payload
        assert header == {
            "format": 2,
            "n_actions": recorder.next_seq,
            "python": snapshot.PYTHON,
            "sha256": header["sha256"],
            "tenant": "erin",
        }
        assert snapshot.check(header, payload, "erin") == recorder.next_seq
        restored = new_session(build_demo_world())
        snapshot.load(restored, payload)
        assert session_hash(restored) == session_hash(session)

    def test_builtin_types_by_reference_refined_types_by_value(self):
        world = build_world()
        session = new_session(world)
        refined = session.type_learner.learn(PLACE, ["Hope Shelter", "Grace Hall"])
        restored = new_session(build_world())
        snapshot.load(restored, snapshot.dump(session))
        for learned in builtin_types():
            if learned.name != PLACE.name:
                assert restored.type_learner.get(learned.name) is learned
        place = restored.type_learner.get(PLACE.name)
        assert place == refined and place is not refined
        assert place != next(t for t in builtin_types() if t.name == PLACE.name)

    def test_recovered_history_extended_by_live_actions(self, tmp_path):
        # The seq continues across the recover seam: the next snapshot
        # covers the recovered actions plus the live ones.
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recover_session(session, "t", store, checkpoint_interval=4)
        drive_scripted(session, world, n_extra=2, seed=5)
        store.close()

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recorder, report = recover_session(restored, "t", store2, checkpoint_interval=0)
            assert report is not None and report.applied == 3  # 11 actions, snapshot at 8
            assert recorder.next_seq == 11
            for _ in range(3):
                restored.column_suggestions(k=4, refresh=True)
            assert [a["seq"] for a in recorder.history] == list(range(8, 14))
            assert recorder.checkpoint()
            assert recorder.history == []
        assert checkpoint_header(store2.checkpoint_path("t"))["n_actions"] == 14
        again = new_session(build_world())
        with DurabilityStore(tmp_path) as store3:
            _, report3 = recover_session(again, "t", store3)
        assert report3 is None
        assert session_hash(again) == session_hash(restored)

    def test_live_history_is_not_re_encoded(self, tmp_path, monkeypatch):
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "t", store, checkpoint_interval=0)
        drive_scripted(session, world, n_extra=4, seed=2)
        encoded = []
        real_dumps = json.dumps

        def dumps(obj, *args, **kwargs):
            encoded.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", dumps)
        monkeypatch.setattr(json, "dump", lambda *a, **k: pytest.fail("checkpoint re-encoded its payload"))
        assert recorder.checkpoint()
        monkeypatch.undo()
        store.close()
        assert recorder.next_seq == 13 and recorder.history == []
        # Only the header is encoded, never an action.
        assert [sorted(obj) for obj in encoded] == [["format", "n_actions", "python", "sha256", "tenant"]]

    def test_corrupted_append_heals_into_the_checkpoint(self, tmp_path):
        # Append #3 reaches disk with a flipped byte; the snapshot after
        # append #8 covers it, so recovery never reads the damaged frame.
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        with WAL_FAULTS.injected(TearAt(3, kind="corrupt")):
            recorder, _ = recover_session(session, "t", store, checkpoint_interval=8)
            drive_scripted(session, world)
        live = session_hash(session)
        store.close()
        assert recorder.checkpoints == 1 and recorder.next_seq == 9
        assert checkpoint_header(store.checkpoint_path("t"))["n_actions"] == 8

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recovered = store2.recover("t")
            assert recovered.from_checkpoint == 8 and recovered.from_wal == 1
            recover_session(restored, "t", store2)
        assert session_hash(restored) == live


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).map(lambda n: n if n % 2 else -n),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e308, 5e-324, 0.1]),
    st.text(),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\u2028", "é", "日本", "\U0001f600"]),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=60, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.text(max_size=10), st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4)),
        max_size=8,
    ),
    checkpointed=st.integers(min_value=0, max_value=8),
    tenant=st.text(max_size=10),
)
def test_checkpoint_bytes_match_reference_writer(calls, checkpointed, tenant):
    """Any JSON-able history in a format-1 root — the reference writer's
    checkpoint of a prefix, the log holding the rest — recovers to itself,
    as one tail, continuing the sequence."""
    history = [{"seq": i, "name": name, "args": args} for i, (name, args) in enumerate(calls)]
    k = min(checkpointed, len(history))
    with tempfile.TemporaryDirectory() as tmp, DurabilityStore(tmp) as store:
        path = store.checkpoint_path(tenant)
        path.parent.mkdir(parents=True)
        path.write_bytes(checkpoint_bytes(tenant, history[:k]))
        for record in history:  # records below k are stale, as after a crash before truncation
            store.append(tenant, record)
        recovered = store.recover(tenant)
    assert recovered.from_checkpoint == k and recovered.from_wal == len(history) - k
    assert recovered.actions == history
    assert not recovered.has_snapshot and recovered.next_seq == len(history)


# --------------------------------------------------------------- stats line
class TestStatsLine:
    def test_counts_logged_actions(self):
        world = build_world()
        session = new_session(world)
        attach_recorder(session, SessionRecorder())
        with metrics_on():
            drive_scripted(session, world)
            (line,) = [line for line in render_summary() if line.startswith("durability:")]
        assert " actions_logged=9 " in line


# ------------------------------------------------------ kill/restore sweep
KILL_MATRIX = [(0, 3), (1, 6), (2, 10), (3, 13)]


def torn_run(root, driver_seed, tear_at, interval):
    """Drive a store-backed session until append #tear_at tears."""
    world = build_world()
    session = new_session(world)
    store = DurabilityStore(root)
    with WAL_FAULTS.injected(TearAt(tear_at)):
        recover_session(session, "sweep", store, checkpoint_interval=interval)
        driver = Driver(session, world, seed=driver_seed)
        with pytest.raises(InjectedWalFault):
            for _ in range(16):
                driver.step()
    store.close()


@pytest.mark.parametrize(("driver_seed", "tear_at"), KILL_MATRIX)
def test_kill_restore_sweep(tmp_path, driver_seed, tear_at):
    """Seeded kill matrix (the CI ``crash-recovery`` sweep): tear the log
    mid-append at several points across several random action sequences;
    recovery must always equal an uninterrupted run of the pre-tear
    prefix."""
    torn_run(tmp_path, driver_seed, tear_at, interval=64)  # the default: all in the log

    restored = new_session(build_world())
    with DurabilityStore(tmp_path) as store2:
        _, report = recover_session(restored, "sweep", store2)
    assert report is not None and report.applied == tear_at

    assert session_hash(restored) == prefix_hash(driver_seed, tear_at)


def prefix_hash(driver_seed, n):
    """The digest of an uninterrupted in-memory run of *n* driver steps."""
    world = build_world()
    reference = new_session(world)
    driver = Driver(reference, world, seed=driver_seed)
    for _ in range(n):
        driver.step()
    return session_hash(reference)


@pytest.mark.parametrize(("driver_seed", "tear_at"), KILL_MATRIX)
def test_kill_restore_sweep_with_snapshots(tmp_path, driver_seed, tear_at):
    """The same kill matrix over a root snapshotted every 4 actions: the
    torn append lands after the last snapshot, and recovery is that
    snapshot plus the intact log tail."""
    torn_run(tmp_path, driver_seed, tear_at, interval=4)

    restored = new_session(build_world())
    with DurabilityStore(tmp_path) as store2:
        recorder, report = recover_session(restored, "sweep", store2)
    assert recorder.next_seq == tear_at
    assert (report.applied if report else 0) == tear_at % 4
    assert session_hash(restored) == prefix_hash(driver_seed, tear_at)


# ------------------------------------------------------- crash property test
@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One recorded random-usersim run: history, per-prefix digests, raw WAL."""
    root = tmp_path_factory.mktemp("durability-prop")
    world = build_world()
    session = new_session(world)
    store = DurabilityStore(root)
    recorder = SessionRecorder("prop", store, checkpoint_interval=10**9)
    attach_recorder(session, recorder)
    digests = [session_hash(session)]
    driver = Driver(session, world, seed=7)
    for _ in range(22):
        driver.step()
        if len(recorder.history) == len(digests):
            digests.append(session_hash(session))
    store.close()
    assert len(digests) == len(recorder.history) + 1
    return {
        "history": [dict(a) for a in recorder.history],
        "digests": digests,
        "wal": store.wal_path("prop").read_bytes(),
        "tenant": "prop",
    }


@settings(max_examples=20, deadline=None)
@given(frac=st.floats(min_value=0.0, max_value=1.0), damage=st.sampled_from(["truncate", "flip"]))
def test_crash_at_random_log_offset_recovers_a_consistent_prefix(recorded_run, frac, damage):
    """Kill the log at any byte: recovery must land exactly on the state
    the live session had after some prefix of its actions — never crash,
    never replay garbage, never skip an action that was durable."""
    wal = recorded_run["wal"]
    offset = min(len(wal), int(frac * (len(wal) + 1)))
    if damage == "truncate":
        damaged = wal[:offset]
    else:
        if offset >= len(wal):
            offset = len(wal) - 1
        damaged = wal[:offset] + bytes([wal[offset] ^ 0xFF]) + wal[offset + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        tenant_dir = Path(tmp) / tenant_dirname(recorded_run["tenant"])
        tenant_dir.mkdir(parents=True)
        (tenant_dir / "wal.log").write_bytes(damaged)
        recovered = DurabilityStore(tmp).recover(recorded_run["tenant"])

    history = recorded_run["history"]
    k = len(recovered.actions)
    assert recovered.actions == history[:k]
    if damage == "truncate" and offset == len(wal):
        assert k == len(history) and recovered.stop_reason is None

    replica = new_session(build_world())
    report = replay(replica, recovered.actions)
    assert report.applied == k
    assert session_hash(replica) == recorded_run["digests"][k]


@pytest.fixture(scope="module")
def snapshotted_run(tmp_path_factory):
    """A recorded run that snapshots every 8 actions: per-count digests,
    the last snapshot and the log tail after it."""
    root = tmp_path_factory.mktemp("durability-snapshot-prop")
    world = build_world()
    session = new_session(world)
    store = DurabilityStore(root)
    recorder = attach_recorder(session, Capturing("prop", store, checkpoint_interval=8))
    digests = [session_hash(session)]
    driver = Driver(session, world, seed=7)
    for _ in range(22):
        driver.step()
        if recorder.next_seq == len(digests):
            digests.append(session_hash(session))
    store.close()
    assert recorder.checkpoints == 2 and len(digests) == recorder.next_seq + 1 == 23
    return {
        "history": recorder.records,
        "digests": digests,
        "checkpoint": store.checkpoint_path("prop").read_bytes(),
        "wal": store.wal_path("prop").read_bytes(),
        "tenant": "prop",
    }


@settings(max_examples=20, deadline=None)
@given(
    frac=st.floats(min_value=0.0, max_value=1.0),
    damage=st.sampled_from(["truncate", "flip"]),
    target=st.sampled_from(["wal", "checkpoint"]),
)
def test_crash_after_a_snapshot_recovers_a_consistent_prefix(snapshotted_run, frac, damage, target):
    """Kill at any byte of a root holding a snapshot: damage to the log
    tail lands on the snapshot plus a prefix of the tail; damage to the
    snapshot itself leaves nothing trusted (the tail cannot continue an
    empty history), so the tenant restarts from empty. Never a crash,
    never a state no prefix had."""
    files = {"wal": snapshotted_run["wal"], "checkpoint": snapshotted_run["checkpoint"]}
    data = files[target]
    offset = min(len(data) - 1, int(frac * len(data)))
    if damage == "truncate":
        files[target] = data[:offset]
    else:
        files[target] = data[:offset] + bytes([data[offset] ^ 0xFF]) + data[offset + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        tenant_dir = Path(tmp) / tenant_dirname(snapshotted_run["tenant"])
        tenant_dir.mkdir(parents=True)
        (tenant_dir / "wal.log").write_bytes(files["wal"])
        (tenant_dir / "checkpoint.json").write_bytes(files["checkpoint"])
        replica = new_session(build_world())
        with DurabilityStore(tmp) as store:
            recorder, _ = recover_session(replica, snapshotted_run["tenant"], store)

    history = snapshotted_run["history"]
    k = recorder.next_seq
    assert recorder.history == history[k - len(recorder.history) : k]
    assert k in (0, *range(16, len(history) + 1))
    if target == "checkpoint":
        assert k == 0
    assert session_hash(replica) == snapshotted_run["digests"][k]
