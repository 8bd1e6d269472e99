"""E-MT / multi-tenant session server A/B.

PR 7 added ``repro.server``: a :class:`SessionManager` running many tenant
sessions over one frozen base catalog with shared, versioned, thread-safe
cache tiers (plan results, analyzer memos, columnar compile closures, scan
transposes). This benchmark is the gate for that server:

- **throughput** — N simulated users (``ScpUser`` scripts: a batch of
  integration-shaped plan evaluations, an integration phase with column
  auto-completion feedback, then a trust-divergence tail) run once
  serialized on the calling thread, each in a plain ``CopyCatSession``
  over its own fork of the base with *private* caches, and once
  concurrently on the 8-worker pool with *shared* tiers. The gate reads
  the median of ``N_PAIRS`` paired serial/concurrent wall ratios, which
  must clear ``SPEEDUP_FLOOR``x aggregate throughput. Because this
  is pure Python under the GIL, the win is the shared tiers doing the
  work once — tenant A's evaluated plan, compiled closure, and scan
  transpose are hits for tenants B..H — not parallel compute;
- **isolation** — every tenant's full output (plan results with
  provenance, accepted columns, workspace rows, trust map, learned edge
  weights) must be bit-for-bit identical, in both legs, to the same script
  run in an isolated single-threaded ``CopyCatSession`` (a tenant shares
  only the frozen base and the locked tiers, so isolation is checkable by
  construction).

The tenant script deliberately ends by *diverging*: ``demote_row`` bumps
the catalog version and marks base rows distrusted, which moves the fork
onto a private cache scope — so the benchmark also exercises the
copy-on-write path where shared entries silently stop applying.

Latency is recorded per request (service time on the worker) and reported
as p50/p95/p99 alongside throughput.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import CopyCatSession, ScpUser
from repro.obs.metrics import percentile
from repro.server import SERVER, SessionManager, SharedBase
from repro.substrate.relational import (
    And,
    Catalog,
    Compare,
    Contains,
    Distinct,
    Join,
    NotNull,
    Plan,
    Project,
    Relation,
    Rename,
    Scan,
    Select,
    schema_of,
)
from repro.util.rng import make_rng

from .common import format_table, table_series, write_report

N_TENANTS = 12
WORKERS = 8
N_ROWS = 8000
N_CITIES = 40
N_CONTACTS = 24
#: Timed leg pairs; the gate reads the median of their ratios.
N_PAIRS = 7
SPEEDUP_FLOOR = 3.0


def tenant_catalog(seed: int = 11) -> Catalog:
    """The shared base every tenant forks: shelters, zips, and a small
    contact sheet to integrate.

    The integrated relation is deliberately small (``start_integration``
    materializes every base row into each tenant's workspace, a per-tenant
    cost no cache can amortize) while the *queried* relations carry the
    weight. Shelters uses Town/Place headers so the only discovered
    association for the contacts tab is the Contacts-Zips City join — the
    suggestion candidates stay small and the heavy, shareable work is the
    plan batch below."""
    rng = make_rng(seed)
    cities = [f"City{i:02d}" for i in range(N_CITIES)]
    streets = [f"{n} {w} St" for n in range(30) for w in ("Main", "Oak", "Creek")]
    catalog = Catalog()
    shelters = Relation(
        "Shelters", schema_of("Place", "Town", "Street", "Beds", "Phone", "Status")
    )
    shelters.extend(
        [
            f"Shelter {i}",
            rng.choice(cities),
            rng.choice(streets),
            rng.randint(5, 80),
            f"555-{rng.randint(1000, 9999)}",
            rng.choice(["open", "full", "standby"]),
        ]
        for i in range(N_ROWS)
    )
    zips = Relation("Zips", schema_of("City", "Zip"))
    zips.extend([city, f"{33000 + i}"] for i, city in enumerate(cities))
    contacts = Relation("Contacts", schema_of("Contact", "City"))
    contacts.extend(
        [f"Coordinator {i}", cities[i % (N_CITIES // 2)]] for i in range(N_CONTACTS)
    )
    catalog.add_relation(shelters)
    catalog.add_relation(zips)
    catalog.add_relation(contacts)
    return catalog


def plan_variants() -> list[Plan]:
    """The heavy, cacheable half of the workload: integration-shaped
    mapping pipelines over the big relations, varied enough that each has
    its own fingerprint but every tenant evaluates the same twelve.

    Outputs are deliberately low-cardinality (distinct qualifying
    town/zip pairs): the scan + select + join + provenance ⊕-merge work is
    what the shared tiers amortize, while a cache *hit* only materializes
    a few dozen rows — the shape where a multi-tenant server pays once and
    serves many."""
    plans: list[Plan] = []
    for beds in (55, 60, 65, 70):
        for street_token, status in (("Main", "full"), ("Oak", "standby"), ("Creek", "open")):
            base = Scan("Shelters")
            base = Select(base, Compare("Beds", ">", beds))
            base = Select(base, And((NotNull("Phone"), Compare("Status", "!=", status))))
            base = Select(base, Contains("Street", street_token))
            base = Project(base, ("Place", "Town", "Street", "Beds"))
            base = Rename(base, (("Place", "Shelter"),))
            plans.append(
                Distinct(
                    Project(
                        Join(base, Scan("Zips"), (("Town", "City"),)),
                        ("Town", "Zip"),
                    )
                )
            )
    return plans


def audit_plan() -> Plan:
    """Small post-divergence probe: re-scans Zips, so the base row
    distrusted by ``demote_row`` visibly disappears from the output."""
    return Distinct(Project(Scan("Zips"), ("City", "Zip")))


def result_snapshot(result):
    """Everything parity must hold equal: values, provenance, degradations.

    Provenance expressions compare structurally (``Var``/``Times``/``Plus``
    define ``__eq__``), so the snapshot keeps the objects rather than
    paying a string rendering per row."""
    return (
        result.schema.names,
        [(row.values, prov) for row, prov in result.rows],
        result.degraded,
    )


def _state_snapshot(session: CopyCatSession):
    """The per-tenant state the server must keep isolated: workspace rows,
    source trust, and the learner's edge weights."""
    table = session.workspace.tab(session.OUTPUT_TAB)
    return (
        tuple(tuple(str(v) for v in table.row_values(r)) for r in range(table.n_rows)),
        tuple(
            (name, round(session.catalog.metadata(name).trust, 12))
            for name in sorted(session.catalog.source_names())
        ),
        tuple(
            (key, round(weight, 12))
            for key, weight in sorted(session.integration_learner.graph.weights.items())
        ),
    )


def tenant_ops(plans: list[Plan], offset: int = 0):
    """One tenant's scripted requests, in submission order. Each closure is
    a server request ``fn(session) -> snapshot piece``; the concatenated
    return values are the tenant's full observable output.

    *offset* rotates the plan order so concurrent tenants start on
    *different* plans (real users don't move in lockstep): each plan is
    still computed once and shared, but the single-flight locks see one
    computing tenant and late joiners rather than a whole-fleet convoy."""
    rotated = plans[offset % len(plans):] + plans[: offset % len(plans)]
    ops = [
        (lambda s, p=plan: result_snapshot(s.engine.run(p))) for plan in rotated
    ]

    def integrate(session: CopyCatSession):
        session.start_integration("Contacts")
        user = ScpUser(session)
        added = user.extend_with_columns({"Zip": "Zips"}, k=4, max_rounds=3)
        return tuple(added)

    def diverge(session: CopyCatSession):
        # Trust feedback: bumps the version and marks base rows distrusted,
        # which moves this fork onto a private cache scope (COW divergence).
        return tuple(session.demote_row(0, distrust_base_rows=True))

    def rerun(session: CopyCatSession, plan=audit_plan()):
        return result_snapshot(session.engine.run(plan))

    ops.extend([integrate, diverge, rerun, _state_snapshot])
    return ops


def _timed(fn, latencies: list):
    def wrapper(session):
        start = time.perf_counter()
        try:
            return fn(session)
        finally:
            latencies.append(time.perf_counter() - start)
    return wrapper


def _tenant_offset(tenant_id: str) -> int:
    """The tenant's plan-rotation offset, derived from its id alone (so the
    isolated reference run rotates identically)."""
    return int(tenant_id.rsplit("-", 1)[-1]) if "-" in tenant_id else 0


def run_isolated(tenant_id: str, plans: list[Plan]):
    """Reference run: a plain single-threaded session."""
    session = CopyCatSession(catalog=tenant_catalog())
    return [op(session) for op in tenant_ops(plans, _tenant_offset(tenant_id))]


def run_leg_once(plans: list[Plan], *, concurrent: bool):
    """Drive all tenants over a fresh base; returns
    (wall seconds, per-tenant outputs, per-request latencies).

    The concurrent leg serves them through a manager on shared tiers. The
    serialized leg builds the same tenant sessions as plain
    ``CopyCatSession`` objects on private tiers (a 1-worker manager would
    share tiers and measure something else) and runs them one after
    another on this thread. Session setup is untimed in both legs, and
    both collect garbage just before the clock starts, so the wall measures
    dispatch rather than garbage an earlier benchmark left on the heap."""
    tenants = [f"tenant-{i}" for i in range(N_TENANTS)]
    latencies: list[float] = []
    base = SharedBase(tenant_catalog())
    if not concurrent:
        sessions = {
            tenant: CopyCatSession(catalog=base.fork_catalog())
            for tenant in tenants
        }
        gc.collect()
        start = time.perf_counter()
        outputs = {
            tenant: [
                _timed(op, latencies)(session)
                for op in tenant_ops(plans, _tenant_offset(tenant))
            ]
            for tenant, session in sessions.items()
        }
        return time.perf_counter() - start, outputs, latencies
    with SERVER.overridden(workers=WORKERS, max_sessions=64):
        with SessionManager(base) as manager:
            for tenant in tenants:
                manager.session(tenant)
            gc.collect()
            start = time.perf_counter()
            futures = {
                tenant: [
                    manager.submit(tenant, _timed(op, latencies))
                    for op in tenant_ops(plans, _tenant_offset(tenant))
                ]
                for tenant in tenants
            }
            outputs = {
                tenant: [f.result() for f in futs] for tenant, futs in futures.items()
            }
            wall = time.perf_counter() - start
    return wall, outputs, latencies


def run_pairs(plans: list[Plan]):
    """``N_PAIRS`` pairs of (serialized, concurrent) legs, each leg on a
    fresh manager, catalog and cache scope, so no leg sees another's warm
    entries. The leg that runs first alternates, so neither always runs on
    the heap the other left. Pairs come back sorted by their
    serial/concurrent wall ratio: a scheduler stall that slows a few legs
    moves the ends of that order, not its middle."""
    pairs = []
    for pair in range(N_PAIRS):
        order = (True, False) if pair % 2 else (False, True)
        legs = {concurrent: run_leg_once(plans, concurrent=concurrent) for concurrent in order}
        pairs.append((legs[False], legs[True]))
    pairs.sort(key=lambda legs: legs[0][0] / legs[1][0])
    return pairs


class TestScaleTenants:
    """The ``scale_tenants`` A/B: 8 concurrent tenants vs serialized."""

    def test_concurrent_tenants_match_isolated_and_are_3x_faster(self):
        plans = plan_variants()
        # Warm the process-wide normalize memo and the built-in types once
        # so neither timed leg pays them (leg order must not matter).
        run_isolated("warmup", plans)

        pairs = run_pairs(plans)

        # Correctness gate first: every tenant, every leg, bit for bit
        # against an isolated single-threaded run.
        for tenant in pairs[0][0][1]:
            isolated = run_isolated(tenant, plans)
            for serial, concurrent in pairs:
                assert serial[1][tenant] == isolated, f"serial leg diverged for {tenant}"
                assert concurrent[1][tenant] == isolated, (
                    f"concurrent leg diverged for {tenant}"
                )
        assert all(len(out[0][1]) > 0 for out in pairs[0][0][1].values())

        ratios = [serial[0] / concurrent[0] for serial, concurrent in pairs]
        speedup = statistics.median(ratios)
        # The table shows the median pair (N_PAIRS is odd, so its ratio is
        # the gated one).
        (serial_s, _, serial_lat), (concurrent_s, _, concurrent_lat) = pairs[N_PAIRS // 2]
        n_requests = len(concurrent_lat)
        throughput = n_requests / concurrent_s

        def _percentiles(latencies):
            ms = sorted(v * 1000 for v in latencies)
            return [f"{percentile(ms, q):.2f}" for q in (0.50, 0.95, 0.99)]

        headers = ["mode", "wall s", "req/s", "p50 ms", "p95 ms", "p99 ms"]
        rows = [
            (
                "serialized (private caches)",
                f"{serial_s:.3f}",
                f"{len(serial_lat) / serial_s:.1f}",
                *_percentiles(serial_lat),
            ),
            (
                f"concurrent x{WORKERS} (shared tiers)",
                f"{concurrent_s:.3f}",
                f"{throughput:.1f}",
                *_percentiles(concurrent_lat),
            ),
        ]
        write_report(
            "scale_tenants",
            format_table(headers, rows)
            + [
                "",
                f"speedup x{speedup:.1f} aggregate, median of {N_PAIRS} paired "
                f"legs (the median pair above; all pairs x{ratios[0]:.1f}-x{ratios[-1]:.1f}), "
                f"{N_TENANTS} tenants x "
                f"{n_requests // N_TENANTS} requests; per-tenant outputs == "
                "isolated single-threaded runs (rows, provenance, trust, weights)",
            ],
            series={
                "table": table_series(headers, rows),
                "speedup": speedup,
                "n_pairs": N_PAIRS,
                "throughput_rps": throughput,
                "n_tenants": N_TENANTS,
                "workers": WORKERS,
                "n_requests": n_requests,
            },
        )
        # Hard gate: the 3x floor for the shared-tier server.
        assert speedup >= SPEEDUP_FLOOR, (
            f"multi-tenant speedup x{speedup:.2f} below the {SPEEDUP_FLOOR}x floor"
        )

    def test_bench_tenant_request(self, benchmark):
        """Trend line: one warm plan-eval request through the manager."""
        plans = plan_variants()
        with SERVER.overridden(workers=WORKERS):
            with SessionManager(SharedBase(tenant_catalog())) as manager:
                manager.call("tenant-0", lambda s: s.engine.run(plans[0]))
                result = benchmark(
                    lambda: manager.call("tenant-0", lambda s: len(s.engine.run(plans[0])))
                )
        assert result > 0
