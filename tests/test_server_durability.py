"""Durable sessions under the multi-tenant manager (repro.server).

Contracts under test:

- **evict-through-checkpoint** — explicit eviction, LRU capacity
  pressure, and idle-TTL expiry all persist the session's history before
  dropping it; the tenant's next attach restores the exact state (the
  PR-7 data-loss fix);
- **restart recovery** — a brand-new manager over the same durability
  root rebuilds every tenant on first attach;
- **shutdown** — persists all live tenants and closes the store;
- **layer toggles** — a manager with no durability root attaches
  nothing (in-memory eviction semantics, no file touched), and the
  durability root can come from the config knob instead of the
  constructor.
"""

from __future__ import annotations

import threading

import pytest

from repro import build_scenario
from repro.durability import (
    DURABILITY,
    DurabilityStore,
    SessionRecorder,
    attach_recorder,
    digest_hash,
    replay,
    state_digest,
)
from repro.durability.store import tenant_dirname
from repro.server import OVERLOAD, Overloaded, SERVER, SessionManager, SharedBase

from .test_durability import Driver, drive_scripted


def build_world():
    return build_scenario(seed=5, n_shelters=6, noise=1)


def manager_over(world, root=None, **kwargs):
    return SessionManager(SharedBase(world.catalog), durability_root=root, **kwargs)


def session_hash(session):
    return digest_hash(state_digest(session))


def drive_tenant(manager, world, tenant, n_extra=4, seed=0):
    session = manager.session(tenant)
    drive_scripted(session, world, n_extra=n_extra, seed=seed)
    return session_hash(session)


class TestEvictThrough:
    def test_explicit_evict_restores_on_reattach(self, tmp_path):
        world = build_world()
        with manager_over(world, root=tmp_path) as manager:
            live = drive_tenant(manager, world, "alice")
            first = manager.session("alice")
            assert manager.evict("alice") is True
            assert first.durability is None  # detached: zombie runs in-memory
            restored = manager.session("alice")
            assert restored is not first
            assert session_hash(restored) == live
            assert manager.stats()["checkpointed"] == 1

    def test_lru_eviction_no_longer_loses_state(self, tmp_path):
        world = build_world()
        with SERVER.overridden(enabled=True, max_sessions=2):
            with manager_over(world, root=tmp_path) as manager:
                live = drive_tenant(manager, world, "alice")
                manager.session("bob")
                manager.session("carol")  # alice is the LRU victim
                assert "alice" not in manager.tenant_ids()
                assert session_hash(manager.session("alice")) == live

    def test_idle_ttl_expiry_checkpoints_through(self, tmp_path):
        world = build_world()
        now = [0.0]
        with SERVER.overridden(enabled=True, idle_ttl=10.0):
            manager = manager_over(world, root=tmp_path, clock=lambda: now[0])
            live = drive_tenant(manager, world, "alice")
            now[0] = 30.0
            assert manager.evict_idle() == ["alice"]
            assert session_hash(manager.session("alice")) == live
            manager.shutdown()

    def test_eviction_resumes_the_action_sequence(self, tmp_path):
        # History must continue across the evict/recover seam: more live
        # actions after re-attach, then another recovery, still matches.
        world = build_world()
        with manager_over(world, root=tmp_path) as manager:
            drive_tenant(manager, world, "alice", n_extra=2)
            manager.evict("alice")
            session = manager.session("alice")
            driver = Driver(session, world, seed=5)
            driver._script = iter(())  # import already replayed; random ops only
            for _ in range(4):
                driver.step()
            live = session_hash(session)
            seqs = [a["seq"] for a in session.durability.history]
            assert seqs == list(range(len(seqs)))  # gap-free across the seam
            manager.evict("alice")
            assert session_hash(manager.session("alice")) == live


class TestRestartRecovery:
    def test_new_manager_recovers_every_tenant(self, tmp_path):
        world = build_world()
        with manager_over(world, root=tmp_path) as manager:
            live_a = drive_tenant(manager, world, "alice", seed=0)
            live_b = drive_tenant(manager, world, "bob", n_extra=2, seed=1)
        # "restart": fresh manager, fresh (identical) world, same root.
        world2 = build_world()
        with manager_over(world2, root=tmp_path) as manager2:
            assert session_hash(manager2.session("alice")) == live_a
            assert session_hash(manager2.session("bob")) == live_b

    def test_shutdown_checkpoints_all_live_tenants(self, tmp_path):
        world = build_world()
        manager = manager_over(world, root=tmp_path)
        drive_tenant(manager, world, "alice")
        drive_tenant(manager, world, "bob", n_extra=0, seed=2)
        manager.shutdown()
        assert manager.sessions_checkpointed == 2
        for tenant in ("alice", "bob"):
            assert manager.store.checkpoint_path(tenant).exists()

    def test_root_can_come_from_the_config_knob(self, tmp_path):
        world = build_world()
        with DURABILITY.overridden(root=str(tmp_path)):
            with manager_over(world) as manager:
                assert manager.store is not None
                live = drive_tenant(manager, world, "alice")
                manager.evict("alice")
                assert session_hash(manager.session("alice")) == live


class TestOverloadDurability:
    def test_shed_requests_never_reach_the_wal(self, tmp_path):
        """Admission sheds happen before dispatch, so a shed request leaves
        no trace in the write-ahead log — replay sees only admitted work."""
        world = build_world()
        with SERVER.overridden(enabled=True, workers=1):
            with OVERLOAD.overridden(enabled=True, queue_depth=1):
                with manager_over(world, root=tmp_path) as manager:
                    drive_tenant(manager, world, "alice")
                    recorder = manager.session("alice").durability
                    history_before = len(recorder.history)
                    entered, release = threading.Event(), threading.Event()

                    def gate(session):
                        entered.set()
                        release.wait(timeout=10.0)

                    blocked = manager.submit("alice", gate)
                    assert entered.wait(timeout=5.0)
                    admitted = manager.submit(
                        "alice", lambda s: s.column_suggestions(k=4)
                    )
                    with pytest.raises(Overloaded):
                        manager.submit("alice", lambda s: s.column_suggestions(k=4))
                    release.set()
                    blocked.result(timeout=5.0)
                    admitted.result(timeout=5.0)
                    # Exactly one recorded action: the admitted suggestion
                    # call. The gate records nothing (not a session action),
                    # the shed recorded nothing (it never ran).
                    assert len(recorder.history) == history_before + 1
                    assert recorder.history[-1]["name"] == "column_suggestions"

    def test_explicit_brownout_window_replays_bit_for_bit(self, tmp_path):
        world = build_world()
        with manager_over(world, root=tmp_path) as manager:
            drive_tenant(manager, world, "alice", n_extra=2)
            manager.call("alice", lambda s: s.set_service_level("degraded"))
            manager.call("alice", lambda s: s.column_suggestions(k=4))
            manager.call("alice", lambda s: s.set_service_level("normal"))
            live = session_hash(manager.session("alice"))
            manager.evict("alice")
            assert session_hash(manager.session("alice")) == live

    def test_controller_brownout_is_recorded_and_recovered(self, tmp_path):
        """A load-controller transition reaches the session as a *recorded*
        ``set_service_level`` action: recovery reproduces the degraded
        session, brownout window and all."""
        world = build_world()
        now = [0.0]
        with SERVER.overridden(enabled=True, workers=1):
            with OVERLOAD.overridden(
                enabled=True, brownout_window=4, brownout_hold=2, brownout_p95_ms=100.0
            ):
                manager = SessionManager(
                    SharedBase(world.catalog),
                    durability_root=tmp_path,
                    clock=lambda: now[0],
                )
                drive_tenant(manager, world, "alice", n_extra=0)

                def slow(session):
                    now[0] += 10.0  # every request "takes" 10s

                for _ in range(8):
                    manager.call("alice", slow)
                assert manager.call("alice", lambda s: s.service_level) == "degraded"
                live = session_hash(manager.session("alice"))
                manager.evict("alice")
                restored = manager.session("alice")
                assert restored.service_level == "degraded"
                assert session_hash(restored) == live
                manager.shutdown()


class TestKillDuringBrownout:
    """Kill-at-any-byte over a history that *includes* brownout windows:
    recovery must land on the state after some action prefix — the
    service-level flips replay like any other action."""

    @pytest.fixture(scope="class")
    def brownout_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("overload-durability")
        world = build_world()
        from .test_durability import new_session

        session = new_session(world)
        store = DurabilityStore(root)
        recorder = SessionRecorder("storm", store, seed=1, checkpoint_interval=10**9)
        attach_recorder(session, recorder)
        digests = [session_hash(session)]

        def op_done():
            if len(recorder.history) == len(digests):
                digests.append(session_hash(session))

        driver = Driver(session, world, seed=3)
        for _ in range(9):
            driver.step()
            op_done()
        # A brownout window in the middle of the history.
        for op in (
            lambda: session.set_service_level("degraded"),
            lambda: session.column_suggestions(k=4),
            lambda: session.set_service_level("normal"),
        ):
            op()
            op_done()
        for _ in range(4):
            driver.step()
            op_done()
        store.close()
        assert len(digests) == len(recorder.history) + 1
        return {
            "history": [dict(a) for a in recorder.history],
            "digests": digests,
            "wal": store.wal_path("storm").read_bytes(),
        }

    @pytest.mark.parametrize("frac", [0.15, 0.4, 0.6, 0.8, 0.95, 1.0])
    def test_truncated_log_recovers_a_consistent_prefix(
        self, brownout_run, tmp_path, frac
    ):
        from .test_durability import new_session

        wal = brownout_run["wal"]
        damaged = wal[: int(frac * len(wal))]
        tenant_dir = tmp_path / tenant_dirname("storm")
        tenant_dir.mkdir(parents=True)
        (tenant_dir / "wal.log").write_bytes(damaged)
        recovered = DurabilityStore(tmp_path).recover("storm")
        history = brownout_run["history"]
        k = len(recovered.actions)
        assert recovered.actions == history[:k]
        replica = new_session(build_world())
        report = replay(replica, recovered.actions)
        assert report.applied == k
        assert session_hash(replica) == brownout_run["digests"][k]


class TestLayerToggles:
    def test_disabled_durability_reproduces_in_memory_eviction(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        world = build_world()
        with DURABILITY.overridden(root=""):
            with manager_over(world) as manager:
                assert manager.store is None
                fresh = session_hash(manager.session("alice"))
                manager.evict("alice")
                driven = drive_tenant(manager, world, "alice")
                assert driven != fresh
                manager.evict("alice")
                # In-memory semantics: the state is simply gone.
                assert session_hash(manager.session("alice")) == fresh
                assert manager.stats()["checkpointed"] == 0
        assert list(tmp_path.iterdir()) == []  # no files ever touched

    def test_no_root_means_no_persistence(self):
        world = build_world()
        with manager_over(world) as manager:
            assert manager.store is None
            assert manager.session("alice").durability is None

    def test_inline_dispatch_still_records(self, tmp_path):
        world = build_world()
        with SERVER.disabled():
            with manager_over(world, root=tmp_path) as manager:
                live = manager.call(
                    "alice",
                    lambda s: (drive_scripted(s, world), session_hash(s))[1],
                )
                manager.evict("alice")
                assert manager.call("alice", session_hash) == live

    def test_recorder_attached_without_server_layer(self, tmp_path):
        world = build_world()
        with SERVER.disabled():
            with manager_over(world, root=tmp_path) as manager:
                session = manager.session("alice")
                assert isinstance(session.durability, SessionRecorder)
                assert session.durability.tenant == "alice"
