"""Tests for the multi-tenant session server (repro.server).

Contracts under test:

- **copy-on-write forks** — a pristine fork shares the base's cache scope
  and relation objects; its first divergent mutation silently moves it to
  a private scope without touching the base; metadata (trust, notes) is
  per-fork from the start;
- **frozen base** — mutating the shared base catalog raises;
- **lifecycle** — LRU eviction past ``max_sessions``, idle-TTL expiry on
  an injected clock, touch-on-use keeps a session alive;
- **dispatch** — per-tenant FIFO, per-tenant outputs independent of
  the order tenants are created in, exceptions propagate through futures
  without killing the pool;
- **plain-session parity** — a tenant served through the pool on shared
  tiers sees exactly what a plain ``CopyCatSession`` sees.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from types import SimpleNamespace

import pytest

from repro import CopyCatSession
from repro.cache.tiers import CacheTiers
from repro.errors import CatalogError
from repro.learning.model.seed import builtin_types
from repro.obs import render_summary
from repro.server import (
    OVERLOAD,
    SERVER,
    SessionError,
    SessionManager,
    SharedBase,
)
from repro.server.manager import _Entry
from repro.substrate.documents import TextDocument, WordApp
from repro.substrate.relational import Catalog, Relation, Scan, schema_of

MEMO = TextDocument("Memo", "Name: Alpha Depot\nCity: Creek\n\nName: Beta Depot\nCity: Park\n")


def small_catalog() -> Catalog:
    catalog = Catalog()
    cities = Relation("Cities", schema_of("City", "Zip"))
    cities.extend([[f"City{i}", f"{33000 + i}"] for i in range(6)])
    catalog.add_relation(cities)
    return catalog


class TestCatalogFork:
    def test_pristine_fork_shares_scope_and_relations(self):
        base = small_catalog()
        fork = base.fork()
        assert fork.cache_scope == base.cache_scope
        assert fork.relation("Cities") is base.relation("Cities")
        assert fork.version == base.version

    def test_first_mutation_diverges_scope_once(self):
        base = small_catalog()
        fork = base.fork()
        fork.bump_version()
        diverged = fork.cache_scope
        assert diverged != base.cache_scope
        fork.bump_version()
        assert fork.cache_scope == diverged  # scope moves once, then sticks
        assert base.cache_scope != diverged

    def test_fork_metadata_is_private(self):
        base = small_catalog()
        fork = base.fork()
        fork.metadata("Cities").trust = 0.25
        fork.metadata("Cities").notes.setdefault("distrusted_rows", set()).add(3)
        assert base.metadata("Cities").trust != 0.25
        assert "distrusted_rows" not in base.metadata("Cities").notes

    def test_frozen_base_raises_on_mutation(self):
        shared = SharedBase(small_catalog())
        with pytest.raises(CatalogError):
            shared.catalog.bump_version()
        with pytest.raises(CatalogError):
            shared.catalog.add_relation(Relation("X", schema_of("A")))
        # ... but forks stay writable.
        shared.fork_catalog().bump_version()

    def test_distinct_catalogs_get_distinct_scopes(self):
        assert small_catalog().cache_scope != small_catalog().cache_scope


class TestCacheTiers:
    def test_private_tiers_flight_is_a_noop(self):
        # One caller never contends, and a landed flight leaves no state.
        tiers = CacheTiers()
        with tiers.flight(("k", 1)):
            pass
        with tiers.flight(("k", 1)):
            pass
        assert tiers._flights == {}

    def test_shared_flight_serializes_per_key(self):
        tiers = CacheTiers()
        with tiers.flight(("k", 1)):
            # A different key must not deadlock while "k" is in flight.
            with tiers.flight(("other", 2)):
                pass
        assert tiers.stats()["plan"]["size"] == 0

    def test_stats_shape(self):
        stats = CacheTiers().stats()
        assert set(stats) == {"plan", "compile", "scan"}


class TestLifecycle:
    def test_lru_eviction_past_max_sessions(self):
        with SERVER.overridden(max_sessions=2):
            with SessionManager(SharedBase(small_catalog())) as manager:
                manager.session("a")
                manager.session("b")
                manager.session("a")  # touch: now b is the LRU victim
                manager.session("c")
                assert manager.tenant_ids() == ["a", "c"]
                assert manager.sessions_evicted == 1

    def test_idle_ttl_expiry_with_injected_clock(self):
        now = [0.0]
        manager = SessionManager(SharedBase(small_catalog()), clock=lambda: now[0])
        manager.session("a")
        now[0] = 5.0
        manager.session("b")
        now[0] = 12.0
        assert manager.evict_idle() == []  # the default TTL is 900s
        assert manager.evict_idle(10.0) == ["a"]  # idle 12s > ttl; b idle 7s stays
        assert manager.tenant_ids() == ["b"]
        assert manager.sessions_expired == 1
        manager.shutdown()

    @staticmethod
    def many_idle_entries(manager):
        """More idle registry entries than the interpreter's recursion
        limit, each a stub whose session keeps no durable history."""
        tenants = [f"t{i}" for i in range(sys.getrecursionlimit() + 500)]
        stub = SimpleNamespace(durability=None)
        with manager._registry_lock:  # noqa: SLF001 - direct setup
            for tenant in tenants:
                manager._registry[tenant] = _Entry(  # noqa: SLF001
                    session=stub, created=0.0, last_used=0.0, tenant_id=tenant
                )
            return tenants, list(manager._registry.values())  # noqa: SLF001

    def test_expiring_more_sessions_than_the_recursion_limit_seals_each(self):
        now = [0.0]
        manager = SessionManager(SharedBase(small_catalog()), clock=lambda: now[0])
        tenants, entries = self.many_idle_entries(manager)
        now[0] = 30.0
        assert manager.evict_idle(10.0) == tenants
        assert all(entry.sealed.is_set() for entry in entries)
        assert manager._retiring == {}  # noqa: SLF001
        manager.shutdown()

    def test_shutting_down_more_sessions_than_the_recursion_limit_closes_the_store(self, tmp_path):
        manager = SessionManager(SharedBase(small_catalog()), durability_root=tmp_path)
        _, entries = self.many_idle_entries(manager)
        closed = []
        manager.store.close = lambda: closed.append(True)
        manager.shutdown()
        assert all(entry.sealed.is_set() for entry in entries)
        assert closed == [True]

    def test_evict_returns_whether_present(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            manager.session("a")
            assert manager.evict("a") is True
            assert manager.evict("a") is False

    def test_shutdown_refuses_new_requests(self):
        manager = SessionManager(SharedBase(small_catalog()))
        manager.shutdown()
        with pytest.raises(SessionError):
            manager.session("a")

    def test_recreated_session_is_fresh(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            first = manager.session("a")
            manager.evict("a")
            second = manager.session("a")
            assert second is not first


class TestDispatch:
    def test_tenants_hold_the_same_builtin_types(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            a, b = manager.session("a").type_learner, manager.session("b").type_learner
            for learned in builtin_types():
                assert a.get(learned.name) is b.get(learned.name) is learned

    def test_tenant_outputs_are_order_independent(self):
        def request(session):
            # A paste runs structure induction and type recognition; its
            # rows, suggestions and proposed types are the served output.
            app = WordApp(session.clipboard, MEMO)
            app.open("Memo")
            app.copy_fields(["Alpha Depot", "Creek"])
            outcome = session.paste()
            scanned = [(r.values, p) for r, p in session.engine.run(Scan("Cities"))]
            return outcome.pasted_rows, outcome.row_suggestion, outcome.type_suggestions, scanned

        def digests(order):
            with SessionManager(SharedBase(small_catalog())) as manager:
                outputs = {tenant: manager.call(tenant, request) for tenant in order}
            return {t: hashlib.sha256(repr(out).encode()).hexdigest() for t, out in outputs.items()}

        assert digests(("a", "b", "c")) == digests(("c", "b", "a"))

    def test_call_runs_against_the_tenants_session(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            n = manager.call("a", lambda s: len(s.engine.run(Scan("Cities"))))
            assert n == 6

    def test_fifo_order_within_a_tenant(self):
        with SERVER.overridden(workers=4):
            with SessionManager(SharedBase(small_catalog())) as manager:
                seen: list[int] = []
                futures = [
                    manager.submit("a", lambda s, i=i: seen.append(i)) for i in range(20)
                ]
                for future in futures:
                    future.result()
                assert seen == list(range(20))

    def test_exceptions_propagate_and_pool_survives(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            def boom(session):
                raise ValueError("bad request")
            with pytest.raises(ValueError, match="bad request"):
                manager.call("a", boom)
            assert manager.request_errors == 1
            assert manager.call("a", lambda s: "ok") == "ok"

    def test_sessions_share_the_base_tiers_when_enabled(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            a = manager.session("a")
            b = manager.session("b")
            assert a.engine._evaluator.tiers is manager.base.tiers
            assert b.engine._evaluator.tiers is manager.base.tiers

    def test_stats_include_tier_stats(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            manager.session("a")
            stats = manager.stats()
            assert stats["active"] == 1
            assert stats["created"] == 1
            assert "plan" in stats["tiers"]


class TestDispatchEdgeCases:
    def _blocked(self, manager, tenant="a"):
        """Submit a request that blocks its worker until released."""
        entered, release = threading.Event(), threading.Event()

        def gate(session):
            entered.set()
            release.wait(timeout=10.0)
            return "gated"

        future = manager.submit(tenant, gate)
        assert entered.wait(timeout=5.0)
        return future, release

    def test_cancel_before_run_skips_the_work(self):
        ran = []
        with SERVER.overridden(workers=1):
            with SessionManager(SharedBase(small_catalog())) as manager:
                blocked, release = self._blocked(manager)
                doomed = manager.submit("a", lambda s: ran.append(True))
                trailing = manager.submit("a", lambda s: "after")
                assert doomed.cancel()  # still queued: cancellable
                release.set()
                assert blocked.result(timeout=5.0) == "gated"
                assert trailing.result(timeout=5.0) == "after"
                assert doomed.cancelled()
                assert ran == []  # the cancelled body never ran
                assert manager.inflight == 0  # its admission slot released

    def test_submit_after_shutdown_raises_not_hangs(self):
        manager = SessionManager(SharedBase(small_catalog()))
        manager.call("a", lambda s: None)
        manager.shutdown()
        with pytest.raises(SessionError):
            manager.submit("a", lambda s: None)
        with pytest.raises(SessionError):
            manager.call("a", lambda s: None)

    def test_shutdown_strands_queued_futures(self):
        """Futures still queued when the pool stops must fail, not hang."""
        with SERVER.overridden(workers=1):
            manager = SessionManager(SharedBase(small_catalog()))
            blocked, release = self._blocked(manager)
            queued = [manager.submit("a", lambda s: "never") for _ in range(3)]
            # wait=False: the pool stops accepting work; the gate is still
            # holding the only worker, so the queued requests are orphaned.
            shutdown_done = threading.Event()

            def do_shutdown():
                manager.shutdown(wait=False)
                shutdown_done.set()

            threading.Thread(target=do_shutdown, daemon=True).start()
            assert shutdown_done.wait(timeout=5.0)
            release.set()
            assert blocked.result(timeout=5.0) == "gated"
            for future in queued:
                with pytest.raises(SessionError, match="shut down"):
                    future.result(timeout=5.0)
            assert manager.requests_stranded == 3

    def test_racing_submits_never_double_drain(self):
        """8 threads submitting to one tenant: every request runs exactly
        once, FIFO per submitting thread, with a coherent final count."""
        with SERVER.overridden(workers=4), OVERLOAD.overridden(
            queue_depth=1000
        ):
            with SessionManager(SharedBase(small_catalog())) as manager:
                seen: list[tuple[int, int]] = []
                barrier = threading.Barrier(8)
                futures_by_thread: dict[int, list] = {}

                def flood(thread_id):
                    barrier.wait()
                    futures_by_thread[thread_id] = [
                        manager.submit(
                            "a", lambda s, t=thread_id, i=i: seen.append((t, i))
                        )
                        for i in range(25)
                    ]

                threads = [
                    threading.Thread(target=flood, args=(t,)) for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                for futures in futures_by_thread.values():
                    for future in futures:
                        future.result(timeout=10.0)
                assert len(seen) == 200  # exactly once each
                for thread_id in range(8):
                    mine = [i for t, i in seen if t == thread_id]
                    assert mine == sorted(mine)  # per-thread FIFO preserved
                assert manager.requests == 200
                assert manager.inflight == 0

    def test_stats_are_coherent_under_concurrent_load(self):
        with SERVER.overridden(workers=8):
            with SessionManager(SharedBase(small_catalog())) as manager:
                barrier = threading.Barrier(8)

                def churn(thread_id):
                    barrier.wait()
                    for i in range(20):
                        tenant = f"t{(thread_id + i) % 4}"
                        if i % 5 == 4:
                            try:
                                manager.call(tenant, lambda s: 1 / 0)
                            except ZeroDivisionError:
                                pass
                        else:
                            manager.call(tenant, lambda s: None)

                threads = [
                    threading.Thread(target=churn, args=(t,)) for t in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                stats = manager.stats()
                assert stats["requests"] == 160
                assert stats["request_errors"] == 32
                assert stats["overload"]["inflight"] == 0
                assert stats["active"] == 4

    def test_interrupt_reraises_after_failing_the_future(self):
        """KeyboardInterrupt/SystemExit propagate to the caller through the
        future *and* are re-raised on the worker (never swallowed)."""
        with SessionManager(SharedBase(small_catalog())) as manager:
            def interrupt(session):
                raise KeyboardInterrupt("operator hit ^C")

            future = manager.submit("a", interrupt)
            with pytest.raises(KeyboardInterrupt):
                future.result(timeout=5.0)
            assert manager.request_errors == 1
            # The pool survives one interrupted worker thread.
            assert manager.call("a", lambda s: "alive") == "alive"

    def test_busy_tenant_is_not_the_lru_victim(self):
        """Satellite fix: dispatch must refresh LRU *order*, not just the
        timestamp — the busiest tenant was previously evictable."""
        with SERVER.overridden(max_sessions=2):
            with SessionManager(SharedBase(small_catalog())) as manager:
                manager.call("busy", lambda s: None)
                manager.session("idle")
                # Dispatch (not session()) touches "busy" again:
                manager.call("busy", lambda s: None)
                manager.session("newcomer")  # someone must be evicted
                assert "busy" in manager.tenant_ids()
                assert "idle" not in manager.tenant_ids()


class TestServedMatchesPlain:
    def test_disabled_matches_plain_session(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            served = manager.call(
                "t", lambda s: [r.values for r, _ in s.engine.run(Scan("Cities"))]
            )
        plain = CopyCatSession(catalog=small_catalog())
        direct = [r.values for r, _ in plain.engine.run(Scan("Cities"))]
        assert served == direct

    def test_stats_line_mentions_disabled(self):
        with SERVER.overridden(workers=2):
            assert "REPRO_SERVER_WORKERS=2" in render_summary()[-1]

    def test_stats_line_with_manager(self):
        with SessionManager(SharedBase(small_catalog())) as manager:
            manager.call("a", lambda s: None)
            stats = manager.stats()
            assert stats["active"] == 1 and stats["requests"] == 1


class TestConfig:
    def test_snapshot_and_overridden(self):
        snap = SERVER.snapshot()
        assert set(snap) == {"workers", "max_sessions"}
        with SERVER.overridden(workers=2):
            assert SERVER.workers == 2
        assert SERVER.workers == snap["workers"]
