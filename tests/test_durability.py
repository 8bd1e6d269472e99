"""Durable sessions: WAL framing, checkpoint/replay, crash recovery.

Contracts under test:

- **WAL framing** — ``read_wal`` trusts exactly the prefix of intact
  frames and reports why it stopped (torn header/record, CRC mismatch,
  garbage length, non-dict payload); it never raises for damage;
- **write-fault injection** — the seeded policy deterministically tears,
  corrupts, or fails-to-sync chosen appends, and recovery absorbs each;
- **checkpoint + stitching** — compaction is atomic, stale pre-checkpoint
  log records are skipped, sequence gaps drop the tail;
- **record/replay bit-identity** — a fresh session replaying the logged
  actions reaches the same :func:`state_digest` as the live session,
  including RNG stream position (later live actions still match);
- **parity** — a recorder is pure observation: recording a session
  changes nothing, and a manager with no durability root never attaches
  one;
- **cross-process replay** — a recorded Section-8 task recovers to the
  live digest in fresh interpreters under different ``PYTHONHASHSEED``s;
- **crash property** (hypothesis) — a random usersim-style action
  sequence, killed at an arbitrary log byte (truncation or bit flip),
  recovers to exactly the state after some prefix of its actions.
"""

from __future__ import annotations

import inspect
import json
import os
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
from repro.durability.store import tenant_dirname
from repro.substrate.documents import CellRange
from repro.substrate.relational.schema import PLACE
from repro.errors import CopyCatError
from repro.obs import METRICS, render_summary
from repro.util.rng import capture_state, restore_state

from .reference_durability import checkpoint_bytes

LABELS = ["Name", "Street", "City"]


def build_world():
    return build_scenario(seed=5, n_shelters=6, noise=1)


def new_session(world, seed=1):
    return CopyCatSession(catalog=world.catalog, seed=seed)


def session_hash(session):
    return digest_hash(state_digest(session))


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


def as_texts(actions):
    """The canonical texts ``write_checkpoint`` splices, one per action."""
    return [canonical_json(action) for action in actions]


class TestStoreRecovery:
    def test_tenant_dirnames_cannot_collide(self):
        assert tenant_dirname("a/b") != tenant_dirname("a_b")
        assert tenant_dirname("") == tenant_dirname("")

    def test_checkpoint_roundtrip_and_truncation(self, tmp_path):
        store = DurabilityStore(tmp_path)
        for record in fake_actions(3):
            store.append("t", record)
        assert store.write_checkpoint("t", as_texts(fake_actions(3)), seed=9)
        store.truncate_wal("t")
        store.append("t", fake_actions(1, start=3)[0])
        store.close()
        recovered = DurabilityStore(tmp_path).recover("t")
        assert [a["seq"] for a in recovered.actions] == [0, 1, 2, 3]
        assert recovered.from_checkpoint == 3 and recovered.from_wal == 1
        assert recovered.seed == 9

    def test_stale_pre_checkpoint_records_skipped(self, tmp_path):
        # Crash between checkpoint rename and log truncation: the log
        # still holds records the checkpoint already owns.
        store = DurabilityStore(tmp_path)
        for record in fake_actions(4):
            store.append("t", record)
        assert store.write_checkpoint("t", as_texts(fake_actions(2)))
        store.close()
        recovered = DurabilityStore(tmp_path).recover("t")
        assert recovered.from_checkpoint == 2 and recovered.from_wal == 2
        assert [a["seq"] for a in recovered.actions] == [0, 1, 2, 3]

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
            assert store.write_checkpoint("t", as_texts(fake_actions(2))) is False
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
        recorder, report = recover_session(new_session(build_world()), "t", store, seed=1)
        store.close()
        assert report is None and recorder.history == []

    def _recorded(self, tmp_path, n=3):
        store = DurabilityStore(tmp_path)
        recorder = SessionRecorder("t", store, checkpoint_interval=0)
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
        recovered = DurabilityStore(tmp_path).recover("t")
        assert [a["seq"] for a in recovered.actions] == [0, 1, 2]


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
            recorder, _ = recover_session(session, "t", store, seed=1)
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
        recorder, report = recover_session(session, "alice", store, seed=1)
        assert report is None  # brand-new tenant: nothing to replay
        drive_scripted(session, world, n_extra=6, seed=9)
        live = session_hash(session)
        store.close()

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recorder2, report2 = recover_session(restored, "alice", store2, seed=1)
        assert report2 is not None and report2.applied == len(recorder.history)
        assert recorder2.since_checkpoint == report2.applied  # all tail, no checkpoint
        assert session_hash(restored) == live

    def test_auto_checkpoint_compacts_and_recovers(self, tmp_path):
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "bob", store, seed=1, checkpoint_interval=4)
        drive_scripted(session, world, n_extra=5, seed=6)
        assert recorder.checkpoints >= 2
        assert recorder.since_checkpoint < 4
        live = session_hash(session)
        store.close()
        checkpoint = json.loads(store.checkpoint_path("bob").read_text(encoding="utf-8"))
        assert checkpoint["n_actions"] >= 8

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recover_session(restored, "bob", store2, seed=1)
        assert session_hash(restored) == live

    def test_torn_write_recovers_state_as_if_action_completed(self, tmp_path):
        # Kill the "process" mid-append of action #6. Write-ahead order
        # means the frame for #6 is damaged, so recovery replays 0..5 —
        # and the recovered state matches an uninterrupted 6-action run.
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        with WAL_FAULTS.injected(TearAt(6)):
            recover_session(session, "carol", store, seed=1)
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
            _, report = recover_session(restored, "carol", store2, seed=1)
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
            recover_session(session, "dave", store, seed=1)
            drive_scripted(session, world, n_extra=4, seed=1)
            assert m.counter_value("durability.fsync_failures") > 0
        live = session_hash(session)
        store.close()
        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recover_session(restored, "dave", store2, seed=1)
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


# --------------------------------------------------- cross-process replay
def build_demo_world():
    return build_scenario(seed=5, n_shelters=10, noise=1)


def drive_demo_task(session, world):
    """The Section-8 task: import shelters and contacts, then accept the
    zip, geocode and contact completions (each runs MIRA updates)."""
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
    recover_session(session, "erin", store, seed=1)
print(digest_hash(state_digest(session)))
"""


def recover_in_subprocess(root, hash_seed: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", RECOVER_SCRIPT, str(root)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip()


class TestCrossProcessReplay:
    def test_recovery_digest_independent_of_hash_seed(self, tmp_path):
        # Crash recovery replays in a new process, whose hash seed differs
        # from the one that recorded the log: float sums over sets must
        # not follow set iteration order.
        world = build_demo_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recover_session(session, "erin", store, seed=1)
        drive_demo_task(session, world)
        live = session_hash(session)
        store.close()
        digests = {seed: recover_in_subprocess(tmp_path, seed) for seed in ("0", "1")}
        assert digests == {"0": live, "1": live}


# ------------------------------------------------ checkpoint byte identity
class TestCheckpointBytes:
    """Checkpoints spliced from append-time texts equal, byte for byte, what
    the reference ``json.dump`` writer produces for the same history."""

    def test_section8_task(self, tmp_path):
        world = build_demo_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "erin", store, seed=1)
        drive_demo_task(session, world)
        assert recorder.checkpoint()
        store.close()
        data = store.checkpoint_path("erin").read_bytes()
        assert data == checkpoint_bytes("erin", recorder.history, seed=1)

    def test_recovered_history_extended_by_live_actions(self, tmp_path):
        # Replayed records carry no append-time text; the next checkpoint
        # encodes them and splices the live ones.
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recover_session(session, "t", store, seed=1, checkpoint_interval=4)
        drive_scripted(session, world, n_extra=2, seed=5)
        store.close()

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recorder, report = recover_session(restored, "t", store2, seed=1, checkpoint_interval=0)
            assert report is not None and report.applied == 11
            for _ in range(3):
                restored.column_suggestions(k=4, refresh=True)
            assert recorder.checkpoint()
            data = store2.checkpoint_path("t").read_bytes()
        assert len(recorder.history) == 14
        assert data == checkpoint_bytes("t", recorder.history, seed=1)

    def test_live_history_is_not_re_encoded(self, tmp_path, monkeypatch):
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        recorder, _ = recover_session(session, "t", store, seed=1, checkpoint_interval=0)
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
        assert len(recorder.history) == 13
        # Only the envelope's seed and tenant are encoded, never an action.
        assert encoded == [1, "t"]
        data = store.checkpoint_path("t").read_bytes()
        assert data == checkpoint_bytes("t", recorder.history, seed=1)

    def test_corrupted_append_heals_into_the_checkpoint(self, tmp_path):
        # Append #3 reaches disk with a flipped byte; the checkpoint after
        # append #8 must hold the pristine record, not the damaged bytes.
        world = build_world()
        session = new_session(world)
        store = DurabilityStore(tmp_path)
        with WAL_FAULTS.injected(TearAt(3, kind="corrupt")):
            recorder, _ = recover_session(session, "t", store, seed=1, checkpoint_interval=8)
            drive_scripted(session, world)
        live = session_hash(session)
        store.close()
        assert recorder.checkpoints == 1 and len(recorder.history) == 9
        data = store.checkpoint_path("t").read_bytes()
        assert data == checkpoint_bytes("t", recorder.history[:8], seed=1)

        restored = new_session(build_world())
        with DurabilityStore(tmp_path) as store2:
            recovered = store2.recover("t")
            assert recovered.from_checkpoint == 8 and recovered.from_wal == 1
            recover_session(restored, "t", store2, seed=1)
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
    replayed=st.integers(min_value=0, max_value=8),
    seed=st.none() | st.integers(),
    tenant=st.text(max_size=10),
)
def test_checkpoint_bytes_match_reference_writer(calls, replayed, seed, tenant):
    """Any JSON-able history — part replayed (encoded at checkpoint time),
    part recorded live (spliced from the append) — checkpoints to the
    reference writer's exact bytes, and recovers to itself."""
    history = [{"seq": i, "name": name, "args": args} for i, (name, args) in enumerate(calls)]
    k = min(replayed, len(history))
    with tempfile.TemporaryDirectory() as tmp, DurabilityStore(tmp) as store:
        recorder = SessionRecorder(tenant, store, seed=seed, checkpoint_interval=0)
        recorder.restore_history(history[:k])
        for record in history[k:]:
            with recorder.action(record["name"], record["args"]):
                pass
        assert recorder.checkpoint()
        data = store.checkpoint_path(tenant).read_bytes()
        recovered = store.recover(tenant)
    assert data == checkpoint_bytes(tenant, history, seed=seed)
    assert recovered.from_checkpoint == len(history) and recovered.from_wal == 0
    assert recovered.actions == history and recovered.seed == seed


# ----------------------------------------------------------------- rng state
class TestRngStreamState:
    def test_capture_restore_resumes_mid_stream(self):
        rng = random.Random(42)
        rng.random()
        state = capture_state(rng)
        expected = [rng.random() for _ in range(5)]
        fresh = restore_state(random.Random(), state)
        assert [fresh.random() for _ in range(5)] == expected

    def test_state_survives_json(self):
        rng = random.Random(7)
        rng.gauss(0, 1)  # populate gauss_next too
        state = json.loads(json.dumps(capture_state(rng)))
        twin = restore_state(random.Random(), state)
        assert twin.random() == rng.random()
        assert twin.gauss(0, 1) == rng.gauss(0, 1)


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
@pytest.mark.parametrize(
    ("driver_seed", "tear_at"),
    [(0, 3), (1, 6), (2, 10), (3, 13)],
)
def test_kill_restore_sweep(tmp_path, driver_seed, tear_at):
    """Seeded kill matrix (the CI ``crash-recovery`` sweep): tear the log
    mid-append at several points across several random action sequences;
    recovery must always equal an uninterrupted run of the pre-tear
    prefix."""
    world = build_world()
    session = new_session(world)
    store = DurabilityStore(tmp_path)
    with WAL_FAULTS.injected(TearAt(tear_at)):
        recover_session(session, "sweep", store, seed=1)
        driver = Driver(session, world, seed=driver_seed)
        with pytest.raises(InjectedWalFault):
            for _ in range(16):
                driver.step()
    store.close()

    restored = new_session(build_world())
    with DurabilityStore(tmp_path) as store2:
        _, report = recover_session(restored, "sweep", store2, seed=1)
    assert report is not None and report.applied == tear_at

    reference_world = build_world()
    reference = new_session(reference_world)
    reference_driver = Driver(reference, reference_world, seed=driver_seed)
    for _ in range(tear_at):
        reference_driver.step()
    assert session_hash(restored) == session_hash(reference)


# ------------------------------------------------------- crash property test
@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One recorded random-usersim run: history, per-prefix digests, raw WAL."""
    root = tmp_path_factory.mktemp("durability-prop")
    world = build_world()
    session = new_session(world)
    store = DurabilityStore(root)
    recorder = SessionRecorder("prop", store, seed=1, checkpoint_interval=10**9)
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
