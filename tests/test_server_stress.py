"""Threaded stress tests for the multi-tenant server and its shared state.

Every test here uses a :class:`threading.Barrier` so all worker threads hit
the contended structure at the same instant — the schedules most likely to
expose torn reads, lost updates, or duplicate identities. The assertions
are exact (no "roughly N"): with correct locking the outcome of N threads
x M ops is fully determined.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from repro import CopyCatSession
from repro.cache.lru import LRUCache
from repro.obs.metrics import Metrics
from repro.server import OVERLOAD, Overloaded, SERVER, SessionManager, SharedBase
from repro.substrate.relational import (
    Catalog,
    Compare,
    Distinct,
    Project,
    Relation,
    Scan,
    Select,
    schema_of,
)
from repro.util.rng import make_rng

N_THREADS = 8
N_OPS = 12


def stress_catalog(n_rows: int = 400) -> Catalog:
    rng = make_rng(17)
    catalog = Catalog()
    towns = Relation("Towns", schema_of("Town", "Pop", "Zip"))
    towns.extend(
        [f"Town{i % 25:02d}", rng.randint(100, 9999), f"{40000 + i % 25}"]
        for i in range(n_rows)
    )
    catalog.add_relation(towns)
    return catalog


def plan_for(i: int):
    return Distinct(
        Project(Select(Scan("Towns"), Compare("Pop", ">", 100 + 37 * i)), ("Town", "Zip"))
    )


def run_threads(n: int, work) -> list:
    """Start *n* threads behind a barrier; re-raise the first worker error."""
    barrier = threading.Barrier(n)
    results: list = [None] * n
    errors: list = []

    def runner(index: int) -> None:
        barrier.wait()
        try:
            results[index] = work(index)
        except BaseException as exc:  # noqa: BLE001 - reported via pytest
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestManagerStress:
    def tenant_script(self, session: CopyCatSession):
        out = []
        for i in range(N_OPS):
            result = session.engine.run(plan_for(i % 4))
            out.append((result.schema.names, [r.values for r, _ in result.rows]))
        # Diverge at the tail: the fork moves to a private scope while the
        # other tenants keep hitting the shared one.
        session.catalog.bump_version()
        result = session.engine.run(plan_for(0))
        out.append((result.schema.names, [r.values for r, _ in result.rows]))
        return out

    def serve_all(self) -> dict[str, list]:
        with SERVER.overridden(workers=N_THREADS, max_sessions=64):
            with SessionManager(SharedBase(stress_catalog())) as manager:
                tenants = [f"tenant-{i}" for i in range(N_THREADS)]
                for tenant in tenants:
                    manager.session(tenant)

                def work(index: int):
                    return manager.call(tenants[index], self.tenant_script)

                results = run_threads(N_THREADS, work)
                assert sorted(manager.tenant_ids()) == sorted(tenants)
                assert manager.requests == N_THREADS
                assert manager.request_errors == 0
                stats = manager.stats()
        for name in ("plan", "compile", "scan"):
            tier = stats["tiers"][name]
            assert tier["hits"] >= 0 and tier["misses"] >= 0
        return dict(zip(tenants, results))

    def test_concurrent_tenants_are_deterministic_and_isolated(self):
        first = self.serve_all()
        second = self.serve_all()
        assert first == second  # scheduling cannot leak into outputs
        isolated = CopyCatSession(catalog=stress_catalog())
        assert first["tenant-3"] == self.tenant_script(isolated)

    def test_concurrent_session_creation_registers_each_tenant_once(self):
        with SERVER.overridden(workers=N_THREADS, max_sessions=64):
            with SessionManager(SharedBase(stress_catalog())) as manager:
                def work(index: int):
                    # All threads race to create the same 4 tenants.
                    return manager.session(f"tenant-{index % 4}")

                sessions = run_threads(N_THREADS, work)
                assert len(manager) == 4
                assert manager.sessions_created == 4
                by_tenant: dict[str, set[int]] = {}
                for index, session in enumerate(sessions):
                    by_tenant.setdefault(f"tenant-{index % 4}", set()).add(id(session))
                # Every thread asking for a tenant got the same instance.
                assert all(len(ids) == 1 for ids in by_tenant.values())

    def test_interleaved_submits_keep_fifo_per_tenant(self):
        with SERVER.overridden(workers=4):
            with SessionManager(SharedBase(stress_catalog())) as manager:
                logs: dict[str, list[int]] = {f"t{i}": [] for i in range(4)}

                def work(index: int):
                    tenant = f"t{index % 4}"
                    futures: list[Future] = []
                    for op in range(N_OPS):
                        stamp = index * 1000 + op
                        futures.append(
                            manager.submit(
                                tenant, lambda s, v=stamp: logs[tenant].append(v)
                            )
                        )
                    return futures

                all_futures = run_threads(N_THREADS, work)
                for futures in all_futures:
                    for future in futures:
                        future.result()
        for tenant, log in logs.items():
            assert len(log) == 2 * N_OPS  # two threads feed each tenant
            # FIFO per submitting thread: each thread's stamps stay ordered.
            for origin in {v // 1000 for v in log}:
                own = [v for v in log if v // 1000 == origin]
                assert own == sorted(own)


class TestOverloadStress:
    def test_admission_accounting_balances_under_a_storm(self):
        """8 threads flood one 2-worker pool past a tight queue bound:
        every submit either returns a future that resolves or raises a
        typed Overloaded with a retry hint — and the books balance exactly:
        admitted + shed == attempted, with zero inflight left behind."""
        per_thread = 40
        with SERVER.overridden(workers=2):
            with OVERLOAD.overridden(queue_depth=8, max_inflight=32):
                with SessionManager(SharedBase(stress_catalog())) as manager:
                    def work(index: int):
                        tenant = f"t{index % 4}"
                        admitted, shed = [], 0
                        for _ in range(per_thread):
                            try:
                                admitted.append(
                                    manager.submit(tenant, lambda s: "ok")
                                )
                            except Overloaded as exc:
                                assert exc.retry_after_ms >= 1.0
                                assert exc.reason in ("queue", "inflight", "early")
                                shed += 1
                        return admitted, shed

                    results = run_threads(N_THREADS, work)
                    outcomes = [
                        future.result(timeout=30.0)
                        for admitted, _ in results
                        for future in admitted
                    ]
                    n_admitted = len(outcomes)
                    n_shed = sum(shed for _, shed in results)
                    assert outcomes == ["ok"] * n_admitted  # all admitted ran
                    assert n_admitted + n_shed == N_THREADS * per_thread
                    assert manager.requests == n_admitted
                    assert manager.requests_shed == n_shed
                    assert sum(manager.shed_reasons.values()) == n_shed
                    assert manager.inflight == 0
                    assert manager.request_errors == 0

    def test_deadlines_under_contention_never_lose_a_future(self):
        """Every future with a deadline resolves — with a value or a typed
        RequestExpired — even when workers are saturated; none hang."""
        from repro.server import RequestExpired

        per_thread = 20
        with SERVER.overridden(workers=2):
            with OVERLOAD.overridden(queue_depth=10_000):
                with SessionManager(SharedBase(stress_catalog())) as manager:
                    def work(index: int):
                        tenant = f"t{index % 4}"
                        return [
                            manager.submit(
                                tenant,
                                lambda s: "ok",
                                # Alternate generous and hair-trigger budgets.
                                deadline_ms=10_000.0 if i % 2 else 0.000_01,
                            )
                            for i in range(per_thread)
                        ]

                    all_futures = run_threads(N_THREADS, work)
                    done, expired = 0, 0
                    for futures in all_futures:
                        for future in futures:
                            try:
                                assert future.result(timeout=30.0) == "ok"
                                done += 1
                            except RequestExpired as exc:
                                assert exc.checkpoint == "dequeue"
                                expired += 1
                    assert done + expired == N_THREADS * per_thread
                    assert manager.requests_expired == expired
                    assert manager.inflight == 0


class TestSharedStructureStress:
    def test_lru_stats_are_exact_under_contention(self):
        cache = LRUCache(capacity=1000)
        per_thread = 200

        def work(index: int):
            for i in range(per_thread):
                key = ("k", i)
                if cache.get(key) is None:
                    cache.put(key, i)
            return None

        run_threads(N_THREADS, work)
        stats = cache.stats()
        # Every get is either a hit or a miss — none lost under contention.
        assert stats["hits"] + stats["misses"] == N_THREADS * per_thread
        assert stats["size"] == per_thread
        assert all(cache.get(("k", i)) == i for i in range(per_thread))

    def test_metrics_counters_are_exact_under_contention(self):
        metrics = Metrics()
        metrics.enable()
        per_thread = 500

        def work(index: int):
            for _ in range(per_thread):
                metrics.inc("stress.counter")
                with metrics.timer("stress.timer_ms"):
                    pass
            return None

        run_threads(N_THREADS, work)
        assert metrics.counter_value("stress.counter") == N_THREADS * per_thread
        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["stress.timer_ms"]["count"] == N_THREADS * per_thread

    def test_shared_scope_reads_are_snapshot_isolated(self):
        """Readers pin (scope, version) at run() entry: a concurrent bump
        by a diverging fork never mixes into an in-flight read's keys."""
        base = SharedBase(stress_catalog())
        with SERVER.overridden(workers=N_THREADS):
            with SessionManager(base) as manager:
                tenants = [f"tenant-{i}" for i in range(N_THREADS)]
                for tenant in tenants:
                    manager.session(tenant)

                def work(index: int):
                    tenant = tenants[index]
                    if index % 2:
                        # Writers: diverge mid-stream, then read again.
                        def script(session):
                            first = session.engine.run(plan_for(0))
                            session.catalog.bump_version()
                            second = session.engine.run(plan_for(0))
                            return (
                                [r.values for r, _ in first.rows],
                                [r.values for r, _ in second.rows],
                            )
                    else:
                        def script(session):
                            rows = [
                                [r.values for r, _ in session.engine.run(plan_for(0)).rows]
                                for _ in range(3)
                            ]
                            return rows
                    return manager.call(tenant, script)

                results = run_threads(N_THREADS, work)
        readers = [results[i] for i in range(N_THREADS) if i % 2 == 0]
        writers = [results[i] for i in range(N_THREADS) if i % 2]
        # Readers: stable rows across repeats, identical across tenants.
        assert all(r == readers[0][0] for result in readers for r in result)
        # Writers: pre- and post-divergence reads agree with the readers'
        # (the bump changes the key, not the data).
        assert all(w == (readers[0][0], readers[0][0]) for w in writers)
