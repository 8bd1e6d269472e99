"""Durable sessions under the multi-tenant manager (repro.server).

Contracts under test:

- **evict-through-checkpoint** — explicit eviction, LRU capacity
  pressure, and idle-TTL expiry all persist the session's history before
  dropping it; the tenant's next attach restores the exact state (the
  PR-7 data-loss fix);
- **snapshot sharing** — a recovered tenant holds the base catalog's
  relations and services and the fleet's cache tiers themselves, never
  copies, on a cache scope of its own; no base row enters a snapshot;
- **eviction vs running and racing requests** — an eviction waits for
  the tenant's running request, so its snapshot is never taken
  mid-action, and the tenant is re-attached only once that snapshot has
  landed, so no admitted action is lost or recorded twice;
- **restart recovery** — a brand-new manager over the same durability
  root rebuilds every tenant on first attach;
- **shutdown** — persists all live tenants and closes the store;
- **layer toggles** — a manager with no durability root attaches
  nothing (in-memory eviction semantics, no file touched), and the
  durability root can come from the config knob instead of the
  constructor.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import build_scenario
from repro.durability import (
    DURABILITY,
    DurabilityStore,
    SessionRecorder,
    attach_recorder,
    digest_hash,
    recover_session,
    replay,
    state_digest,
)
from repro.durability.store import tenant_dirname
from repro.server import OVERLOAD, Overloaded, SERVER, SessionManager, SharedBase
from repro.substrate.relational.catalog import SourceMetadata
from repro.substrate.relational.relation import Relation
from repro.substrate.relational.schema import TEXT, Attribute, Schema

from .test_durability import Driver, drive_scripted
from .test_server_stress import run_threads


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
        with SERVER.overridden(max_sessions=2):
            with manager_over(world, root=tmp_path) as manager:
                live = drive_tenant(manager, world, "alice")
                manager.session("bob")
                manager.session("carol")  # alice is the LRU victim
                assert "alice" not in manager.tenant_ids()
                assert session_hash(manager.session("alice")) == live

    def test_idle_ttl_expiry_checkpoints_through(self, tmp_path):
        world = build_world()
        now = [0.0]
        with SERVER.overridden(idle_ttl=10.0):
            manager = manager_over(world, root=tmp_path, clock=lambda: now[0])
            live = drive_tenant(manager, world, "alice")
            now[0] = 30.0
            assert manager.evict_idle() == ["alice"]
            assert session_hash(manager.session("alice")) == live
            manager.shutdown()

    def test_a_failing_checkpoint_does_not_strand_the_other_evictions(self, tmp_path):
        world = build_world()
        now = [0.0]
        with SERVER.overridden(idle_ttl=10.0):
            manager = manager_over(world, root=tmp_path, clock=lambda: now[0])
            alice = manager.session("alice")
            live_bob = drive_tenant(manager, world, "bob", n_extra=0)

            def broken():
                raise RuntimeError("injected checkpoint failure")

            alice.durability.seal = broken
            now[0] = 30.0
            with pytest.raises(RuntimeError, match="injected"):
                manager.evict_idle()  # alice is first in line, bob second
            attached = {}
            for tenant in ("alice", "bob"):
                worker = threading.Thread(
                    target=lambda t=tenant: attached.update({t: manager.session(t)}), daemon=True
                )
                worker.start()
                worker.join(timeout=30.0)
                assert not worker.is_alive(), f"re-attaching {tenant} blocked"
            assert attached["alice"] is not alice
            assert session_hash(attached["bob"]) == live_bob
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
            resumed = session.durability.next_seq
            assert resumed == 11  # the import and two random ops, snapshotted at eviction
            assert manager.store.recover("alice").from_checkpoint == resumed
            for _ in range(4):
                driver.step()
            live = session_hash(session)
            recorder = session.durability
            seqs = [a["seq"] for a in recorder.history]
            # Gap-free across the seam: the tail continues the snapshot.
            assert seqs == list(range(recorder.next_seq - len(seqs), recorder.next_seq))
            assert recorder.next_seq == resumed + 4
            manager.evict("alice")
            assert session_hash(manager.session("alice")) == live
            assert manager.session("alice").durability.next_seq == resumed + 4

    def test_recovered_tenant_shares_the_base_and_the_tiers(self, tmp_path):
        world = build_world()
        with manager_over(world, root=tmp_path) as manager:
            drive_tenant(manager, world, "alice")
            evicted = manager.session("alice")
            manager.evict("alice")
            restored = manager.session("alice")
            assert restored is not evicted
            base, tiers = manager.base.catalog, manager.base.tiers
            evaluator = restored.engine._evaluator
            assert evaluator.tiers is tiers
            assert evaluator.plan_cache is tiers.plan
            assert restored.catalog._base is base
            for name in base.relation_names():
                assert restored.catalog.relation(name) is base.relation(name)
            for name in base.service_names():
                assert restored.catalog.service(name) is base.service(name)
            # The evicted object may live on in memory: it must never
            # address the recovered tenant's cache entries.
            assert restored.catalog.cache_scope != evicted.catalog.cache_scope

    def test_snapshot_holds_no_base_rows(self, tmp_path):
        def snapshot_bytes(rows):
            world = build_world()
            schema = Schema([Attribute("Code", TEXT), Attribute("Note", TEXT)])
            world.catalog.add_relation(
                Relation("Ledger", schema, [[f"c{i}", f"note {i}"] for i in range(rows)]),
                SourceMetadata(origin="import"),
            )
            with manager_over(world, root=tmp_path / f"rows{rows}") as manager:
                drive_tenant(manager, world, "alice")
                manager.evict("alice")
                return manager.store.checkpoint_path("alice").stat().st_size

        small, large = snapshot_bytes(10), snapshot_bytes(2500)
        assert abs(large - small) < 4096, (small, large)

    def test_eviction_waits_for_a_running_action(self, tmp_path):
        """Evicting a tenant while one of its recorded actions is blocked
        mid-body snapshots the state after that action completes."""
        world = build_world()
        with SERVER.overridden(workers=2):
            with manager_over(world, root=tmp_path) as manager:
                drive_tenant(manager, world, "alice")
                session = manager.session("alice")
                learner = session.integration_learner
                entered, release = threading.Event(), threading.Event()

                def gate():
                    del learner.absorb_service_health  # back to the class's method
                    entered.set()
                    release.wait(timeout=10.0)
                    learner.absorb_service_health()

                learner.absorb_service_health = gate  # runs inside column_suggestions
                running = manager.submit("alice", lambda s: s.column_suggestions(k=4, refresh=True))
                assert entered.wait(timeout=5.0)
                evictor = threading.Thread(target=manager.evict, args=("alice",))
                evictor.start()
                evictor.join(timeout=0.2)
                assert evictor.is_alive()  # waiting for the action, not snapshotting it
                release.set()
                running.result(timeout=10.0)
                evictor.join(timeout=10.0)
                assert not evictor.is_alive()
                live = session_hash(session)
                assert session.durability is None
                assert session_hash(manager.session("alice")) == live


class TestEvictionStress:
    def test_evictions_racing_submits_lose_no_recorded_action(self, tmp_path):
        """Submitters and evictors hammer three tenants at once: every
        admitted recorded action lands exactly once in the tenant's
        durable history — none runs on an evicted, detached session, and
        no tenant is recovered while its evicted entry is still draining."""
        tenants, levels = ("t0", "t1", "t2"), ("degraded", "normal")
        n_submitters, per_thread = 6, 20
        expected = {tenant: 0 for tenant in tenants}
        for index in range(n_submitters):
            for k in range(per_thread):
                expected[tenants[(index + k) % 3]] += 1
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SERVER.overridden(workers=8), OVERLOAD.unbounded():
                with DURABILITY.overridden(checkpoint_interval=7):
                    with manager_over(build_world(), root=tmp_path) as manager:
                        stop = threading.Event()

                        def evictor(offset):
                            index = offset
                            while not stop.is_set():
                                manager.evict(tenants[index % 3])
                                index += 1

                        def submitter(index):
                            futures = [
                                manager.submit(
                                    tenants[(index + k) % 3],
                                    lambda s, level=levels[k % 2]: s.set_service_level(level),
                                )
                                for k in range(per_thread)
                            ]
                            return [future.result(timeout=60) for future in futures]

                        evictors = [threading.Thread(target=evictor, args=(i,)) for i in range(2)]
                        for thread in evictors:
                            thread.start()
                        try:
                            run_threads(n_submitters, submitter)
                        finally:
                            stop.set()
                            for thread in evictors:
                                thread.join(timeout=60)
                        assert not any(thread.is_alive() for thread in evictors)
                        assert manager.stats()["request_errors"] == 0
                        for tenant in tenants:
                            manager.evict(tenant)
                            assert manager.session(tenant).durability.next_seq == expected[tenant]
        finally:
            sys.setswitchinterval(switch)


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
        # The default interval: no checkpoint empties the history mid-test.
        with SERVER.overridden(workers=1), DURABILITY.overridden(checkpoint_interval=64):
            with OVERLOAD.overridden(queue_depth=1):
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
        with SERVER.overridden(workers=1):
            with OVERLOAD.overridden(brownout_window=4, brownout_hold=2, brownout_p95_ms=100.0):
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

    @staticmethod
    def _record(root, interval):
        world = build_world()
        from .test_durability import Capturing, new_session

        session = new_session(world)
        store = DurabilityStore(root)
        recorder = Capturing("storm", store, checkpoint_interval=interval)
        attach_recorder(session, recorder)
        digests = [session_hash(session)]

        def op_done():
            if recorder.next_seq == len(digests):
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
        assert len(digests) == recorder.next_seq + 1
        checkpoint = store.checkpoint_path("storm")
        return {
            "history": recorder.records,
            "digests": digests,
            "wal": store.wal_path("storm").read_bytes(),
            "checkpoint": checkpoint.read_bytes() if checkpoint.exists() else None,
            "checkpoints": recorder.checkpoints,
        }

    @pytest.fixture(scope="class")
    def brownout_run(self, tmp_path_factory):
        return self._record(tmp_path_factory.mktemp("overload-durability"), 10**9)

    @pytest.fixture(scope="class")
    def brownout_snapshot_run(self, tmp_path_factory):
        """The same history, snapshotted every 6 actions (the last one
        after the brownout window)."""
        return self._record(tmp_path_factory.mktemp("overload-snapshots"), 6)

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


    @pytest.mark.parametrize("frac", [0.15, 0.4, 0.6, 0.8, 0.95, 1.0])
    def test_truncated_log_after_a_snapshot_recovers_a_consistent_prefix(
        self, brownout_snapshot_run, tmp_path, frac
    ):
        from .test_durability import new_session

        run = brownout_snapshot_run
        assert run["checkpoints"] == 2 and run["checkpoint"] is not None
        tenant_dir = tmp_path / tenant_dirname("storm")
        tenant_dir.mkdir(parents=True)
        (tenant_dir / "checkpoint.json").write_bytes(run["checkpoint"])
        (tenant_dir / "wal.log").write_bytes(run["wal"][: int(frac * len(run["wal"]))])
        replica = new_session(build_world())
        with DurabilityStore(tmp_path) as store:
            recorder, _ = recover_session(replica, "storm", store)
        k = recorder.next_seq
        assert 12 <= k <= len(run["history"])  # never behind the snapshot
        assert recorder.history == run["history"][12:k]
        assert session_hash(replica) == run["digests"][k]


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
        with manager_over(world, root=tmp_path) as manager:
            live = manager.call(
                "alice",
                lambda s: (drive_scripted(s, world), session_hash(s))[1],
            )
            manager.evict("alice")
            assert manager.call("alice", session_hash) == live

    def test_recorder_attached_without_server_layer(self, tmp_path):
        world = build_world()
        with manager_over(world, root=tmp_path) as manager:
            session = manager.session("alice")
            assert isinstance(session.durability, SessionRecorder)
            assert session.durability.tenant == "alice"
