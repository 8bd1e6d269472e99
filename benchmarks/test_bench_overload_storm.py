"""E-OV / overload storm A/B.

PR 9 added ``repro.server.overload``: admission control over bounded
per-tenant queues, deadline propagation, deficit-round-robin fairness, and
brownout degradation. This benchmark is the gate for that layer, in three
legs over the same storm: a handful of abusive tenants flood slow requests
as fast as they can submit while interactive tenants issue short
deadline-carrying requests and measure end-to-end latency.

- **protection on** (tight knobs) — the storm sheds: at least one submit
  is refused with a typed ``Overloaded`` carrying a usable
  ``retry_after_ms`` hint, the per-tenant queue never exceeds its bound,
  and the interactive p95 stays under ``INTERACTIVE_P95_MS`` because the
  DRR quantum preempts the flooders' drains;
- **protection off** (``OVERLOAD.unbounded()``: the same manager with
  every limit out of reach) — the same storm sheds nothing and the
  flooders' queues grow far past the bound: the unprotected server
  accepts unbounded work (the failure mode the layer exists to prevent);
- **parity** — on a normal (non-storm) workload, dispatch with every
  limit out of reach — and at default knobs — reproduces the
  isolated-session outputs bit for bit (rows, provenance, trust, learned
  weights): protection is pure overhead-free policy until pressure exists.

The abusive request body is a plain ``time.sleep`` rather than a plan
evaluation: the storm measures *dispatch* behavior (queues, sheds,
deadlines, fairness), so service time must be constant and cache-immune.
The parity leg reuses the real ``scale_tenants`` tenant script, where
outputs are rich enough to catch any policy leak into results.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

from repro.obs.metrics import percentile
from repro.server import (
    OVERLOAD,
    Overloaded,
    RequestExpired,
    SERVER,
    SessionManager,
    SharedBase,
)
from repro.substrate.relational import Catalog, Relation, schema_of

from .common import format_table, table_series, write_report
from .test_bench_scale_tenants import (
    _tenant_offset,
    plan_variants,
    run_isolated,
    tenant_catalog,
    tenant_ops,
)

WORKERS = 4
QUEUE_BOUND = 16
MAX_INFLIGHT = 64
DRR_QUANTUM = 4

N_ABUSIVE = 6
FLOOD_PER_TENANT = 60
ABUSIVE_SLEEP_S = 0.002

N_INTERACTIVE = 4
INTERACTIVE_REQUESTS = 12
INTERACTIVE_SLEEP_S = 0.001
INTERACTIVE_DEADLINE_MS = 5_000.0
INTERACTIVE_RETRIES = 25

#: hard gate on the protected leg's interactive p95 (generous for CI).
INTERACTIVE_P95_MS = 250.0
#: the unprotected leg must blow past the bound by at least this factor.
UNBOUNDED_FACTOR = 3

N_PARITY_TENANTS = 4
N_PARITY_PLANS = 4


def storm_catalog() -> Catalog:
    """Minimal base: the storm's request bodies never touch the data."""
    catalog = Catalog()
    towns = Relation("Towns", schema_of("Town", "Zip"))
    towns.extend([f"Town{i:02d}", f"{40000 + i}"] for i in range(25))
    catalog.add_relation(towns)
    return catalog


def run_storm(*, protected: bool) -> dict:
    """One storm over a fresh manager; returns the leg's measurements."""
    abusive = [f"flood-{i}" for i in range(N_ABUSIVE)]
    interactive = [f"user-{i}" for i in range(N_INTERACTIVE)]
    sheds: list[tuple[str, float]] = []
    latencies_ms: list[float] = []
    expired = given_up = succeeded = 0
    max_depth = 0
    lock = threading.Lock()
    barrier = threading.Barrier(N_ABUSIVE + N_INTERACTIVE)
    errors: list[BaseException] = []

    def abusive_body(session):
        time.sleep(ABUSIVE_SLEEP_S)
        return "flood"

    def interactive_body(session):
        time.sleep(INTERACTIVE_SLEEP_S)
        return "ok"

    def flood(manager, tenant):
        nonlocal max_depth
        futures = []
        for _ in range(FLOOD_PER_TENANT):
            try:
                futures.append(manager.submit(tenant, abusive_body))
            except Overloaded as exc:
                with lock:
                    sheds.append((exc.reason, exc.retry_after_ms))
            depth = manager.queue_depths().get(tenant, 0)
            with lock:
                max_depth = max(max_depth, depth)
        return futures

    def converse(manager, tenant):
        nonlocal expired, given_up, succeeded
        for _ in range(INTERACTIVE_REQUESTS):
            start = time.perf_counter()
            future = None
            for _attempt in range(INTERACTIVE_RETRIES):
                try:
                    future = manager.submit(
                        tenant, interactive_body,
                        deadline_ms=INTERACTIVE_DEADLINE_MS,
                    )
                    break
                except Overloaded as exc:
                    with lock:
                        sheds.append((exc.reason, exc.retry_after_ms))
                    time.sleep(min(exc.retry_after_ms, 20.0) / 1000.0)
            if future is None:
                with lock:
                    given_up += 1
                continue
            try:
                assert future.result(timeout=30.0) == "ok"
                with lock:
                    succeeded += 1
                    latencies_ms.append((time.perf_counter() - start) * 1000)
            except RequestExpired:
                with lock:
                    expired += 1
        return []

    def runner(work, manager, tenant, out):
        barrier.wait()
        try:
            out.extend(work(manager, tenant))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    knobs = (
        OVERLOAD.overridden(
            queue_depth=QUEUE_BOUND,
            max_inflight=MAX_INFLIGHT,
            drr_quantum=DRR_QUANTUM,
        )
        if protected
        else OVERLOAD.unbounded()
    )
    with SERVER.overridden(workers=WORKERS, max_sessions=64):
        with knobs:
            with SessionManager(SharedBase(storm_catalog())) as manager:
                for tenant in abusive + interactive:
                    manager.session(tenant)
                flood_futures: list = []
                threads = [
                    threading.Thread(
                        target=runner, args=(flood, manager, t, flood_futures)
                    )
                    for t in abusive
                ] + [
                    threading.Thread(target=runner, args=(converse, manager, t, []))
                    for t in interactive
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if errors:
                    raise errors[0]
                for future in flood_futures:  # drain the backlog fully
                    assert future.result(timeout=30.0) == "flood"
                stats = manager.stats()
                assert manager.inflight == 0
    return {
        "sheds": sheds,
        "max_depth": max_depth,
        "latencies_ms": sorted(latencies_ms),
        "expired": expired,
        "given_up": given_up,
        "succeeded": succeeded,
        "stats": stats,
    }


def run_parity_leg(plans, tenants, knobs) -> dict:
    """The scale_tenants tenant script through a concurrent manager under
    *knobs*; returns per-tenant outputs for bit-for-bit comparison."""
    with SERVER.overridden(workers=WORKERS, max_sessions=64):
        with knobs:
            with SessionManager(SharedBase(tenant_catalog())) as manager:
                for tenant in tenants:
                    manager.session(tenant)
                futures = {
                    tenant: [
                        manager.submit(tenant, op)
                        for op in tenant_ops(plans, _tenant_offset(tenant))
                    ]
                    for tenant in tenants
                }
                return {
                    tenant: [f.result(timeout=60.0) for f in futs]
                    for tenant, futs in futures.items()
                }


class TestOverloadStorm:
    """The ``overload_storm`` A/B: protection on vs off vs PR-8 parity."""

    def test_storm_sheds_bound_queues_and_stays_interactive(self):
        protected = run_storm(protected=True)
        unprotected = run_storm(protected=False)

        # Protection on: the storm sheds, every shed carries a usable
        # retry hint, and the books in the manager agree.
        assert len(protected["sheds"]) > 0, "storm never tripped admission"
        for reason, retry_after_ms in protected["sheds"]:
            assert reason in ("queue", "inflight", "early")
            assert retry_after_ms >= 1.0
        assert protected["stats"]["overload"]["shed"] == len(protected["sheds"])

        # Bounded queues: no tenant's backlog ever exceeded the knob.
        assert protected["max_depth"] <= QUEUE_BOUND

        # Interactive latency stays bounded despite the flood (DRR
        # preempts the flooders' drains every DRR_QUANTUM requests).
        assert protected["succeeded"] > 0
        p95 = percentile(protected["latencies_ms"], 0.95)
        assert p95 <= INTERACTIVE_P95_MS, f"interactive p95 {p95:.1f}ms"

        # Protection off: nothing sheds and the backlog grows far past
        # the bound — the unbounded-queue failure mode, made visible.
        assert len(unprotected["sheds"]) == 0
        assert unprotected["stats"]["overload"]["shed"] == 0
        assert unprotected["max_depth"] >= UNBOUNDED_FACTOR * QUEUE_BOUND

        def leg_row(label, leg):
            ms = leg["latencies_ms"]
            return (
                label,
                len(leg["sheds"]),
                leg["max_depth"],
                f"{percentile(ms, 0.50):.2f}" if ms else "-",
                f"{percentile(ms, 0.95):.2f}" if ms else "-",
                leg["expired"],
                leg["succeeded"],
            )

        headers = [
            "mode", "sheds", "max queue", "int p50 ms", "int p95 ms",
            "expired", "served",
        ]
        rows = [
            leg_row("protected (bounded queues + DRR)", protected),
            leg_row("unprotected (unbounded knobs)", unprotected),
        ]
        write_report(
            "overload_storm",
            format_table(headers, rows)
            + [
                "",
                f"storm: {N_ABUSIVE} flooders x {FLOOD_PER_TENANT} requests vs "
                f"{N_INTERACTIVE} interactive tenants x {INTERACTIVE_REQUESTS}, "
                f"{WORKERS} workers; queue bound {QUEUE_BOUND}, quantum "
                f"{DRR_QUANTUM}; unprotected backlog peaked at "
                f"{unprotected['max_depth']} (bound exceeded "
                f"x{unprotected['max_depth'] / QUEUE_BOUND:.1f})",
            ],
            series={
                "table": table_series(headers, rows),
                "queue_bound": QUEUE_BOUND,
                "protected_max_depth": protected["max_depth"],
                "unprotected_max_depth": unprotected["max_depth"],
                "protected_sheds": len(protected["sheds"]),
                "shed_reasons": protected["stats"]["overload"]["shed_reasons"],
                "interactive_p95_ms": p95,
            },
        )

    def test_unbounded_and_default_knobs_are_bit_for_bit_with_isolated(self):
        plans = plan_variants()[:N_PARITY_PLANS]
        tenants = [f"tenant-{i}" for i in range(N_PARITY_TENANTS)]
        isolated = {tenant: run_isolated(tenant, plans) for tenant in tenants}

        off = run_parity_leg(plans, tenants, OVERLOAD.unbounded())
        on = run_parity_leg(plans, tenants, nullcontext())

        for tenant in tenants:
            assert off[tenant] == isolated[tenant], (
                f"unbounded-knob leg diverged for {tenant}"
            )
            assert on[tenant] == isolated[tenant], (
                f"default-knob protected leg diverged for {tenant}"
            )
