"""E-CO / columnar batch execution A/B.

The relational evaluator compiles every plan into batch-at-a-time closures
over column arrays. This benchmark is its gate: the same plan is evaluated
by the evaluator and by the tuple-at-a-time reference interpreter the tests
use as their oracle (``tests/reference_interpreter.py``); the two results
must agree **bit for bit** (schema, row values, provenance expressions,
degradation markers), and the evaluator must be at least 5x faster.

The workload is the shape the integration stack actually generates: a
pasted source whose columns get renamed/projected onto the target schema
step by step (schema-mapping chains are near-free for the columnar engine
-- column lists are shared, never copied -- but cost a row interpreter a
Row allocation per row per stage), followed by a selection chain, an
equi-join against a small lookup relation, a projection, and a Distinct.

Every timed evaluator run first clears the plan-result cache, so the A/B
measures evaluation, not memoization; the evaluator gets one warmup run so
its compile cost and scan transpose are excluded. The reference
interpreter has no caches.
"""

from __future__ import annotations

import time

from repro.substrate.relational import (
    And,
    Catalog,
    Compare,
    Contains,
    Distinct,
    Evaluator,
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

from tests.reference_interpreter import evaluate as reference

from .common import format_table, table_series, write_report

N_ROWS = 8000
N_CITIES = 40
ROUNDS = 5
SPEEDUP_FLOOR = 5.0


def columnar_catalog(n_rows: int = N_ROWS, seed: int = 11) -> Catalog:
    """A pasted Shelters source (lowercase web headers) plus a Zip lookup."""
    rng = make_rng(seed)
    cities = [f"city{i:02d}" for i in range(N_CITIES)]
    streets = [f"{n} {w} st" for n in range(30) for w in ("main", "oak", "creek")]
    catalog = Catalog()
    shelters = Relation(
        "Shelters", schema_of("name", "city", "street", "beds", "phone", "status")
    )
    shelters.extend(
        [
            f"shelter {i}",
            rng.choice(cities),
            rng.choice(streets),
            rng.randint(5, 80),
            f"555-{rng.randint(1000, 9999)}",
            rng.choice(["open", "full", "standby"]),
        ]
        for i in range(n_rows)
    )
    zips = Relation("Zips", schema_of("City", "Zip"))
    zips.extend([city, f"{33000 + i}"] for i, city in enumerate(cities[:8]))
    catalog.add_relation(shelters)
    catalog.add_relation(zips)
    return catalog


def mapping_pipeline_plan() -> Plan:
    """Schema-map the pasted source, filter, join zips, dedupe."""
    base = Scan("Shelters")
    # The paste flow's column labeling: web headers -> catalog names,
    # one rename/projection step per accepted column suggestion.
    base = Rename(base, (("name", "Name"), ("city", "City")))
    base = Project(base, ("Name", "City", "street", "beds", "phone", "status"))
    base = Rename(base, (("street", "Street"), ("beds", "Beds")))
    base = Project(base, ("Name", "City", "Street", "Beds", "phone", "status"))
    base = Rename(base, (("phone", "Phone"), ("status", "Status")))
    base = Select(base, Compare("Beds", ">", 10))
    base = Select(base, And((NotNull("Phone"), Compare("Status", "!=", "full"))))
    base = Select(base, Contains("Street", "main"))
    base = Project(base, ("Name", "City", "Street", "Beds"))
    base = Rename(base, (("Name", "Shelter"),))
    return Distinct(
        Project(
            Join(base, Scan("Zips"), (("City", "City"),)),
            ("Shelter", "City", "Zip"),
        )
    )


def result_snapshot(result):
    """Everything the A/B must hold equal: values, provenance, degradations."""
    return (
        result.schema.names,
        [(row.values, str(prov)) for row, prov in result.rows],
        result.degraded,
    )


def _evaluate(evaluator: Evaluator, plan: Plan):
    """Evaluate *plan* from an empty plan-result cache."""
    evaluator.tiers.plan.clear()
    return evaluator.run(plan)


def _best_of(run, rounds: int = ROUNDS):
    result = run()  # warmup: compile + scan transpose
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


class TestScaleColumnar:
    """The ``scale_columnar`` A/B: evaluator vs reference interpreter."""

    def test_columnar_matches_row_and_is_5x_faster(self):
        catalog = columnar_catalog()
        plan = mapping_pipeline_plan()

        evaluator = Evaluator(catalog)
        columnar_s, columnar_result = _best_of(lambda: _evaluate(evaluator, plan))
        row_s, row_result = _best_of(lambda: reference(catalog, plan))

        # Correctness gate first: bit-for-bit, provenance included.
        assert result_snapshot(columnar_result) == result_snapshot(row_result)
        assert len(columnar_result) > 0

        speedup = row_s / columnar_s if columnar_s > 0 else float("inf")
        headers = ["mode", "best of 5 ms", "rows out"]
        rows = [
            ("reference (row-at-a-time)", f"{row_s * 1000:.2f}", len(row_result)),
            ("columnar", f"{columnar_s * 1000:.2f}", len(columnar_result)),
        ]
        write_report(
            "scale_columnar",
            format_table(headers, rows)
            + [
                "",
                f"speedup x{speedup:.1f} on {N_ROWS} rows; columnar == reference"
                " including provenance and degradations",
            ],
            series={
                "table": table_series(headers, rows),
                "speedup": speedup,
                "n_rows": N_ROWS,
                "rounds": ROUNDS,
            },
        )
        # Hard gate: the 5x floor over tuple-at-a-time evaluation.
        assert speedup >= SPEEDUP_FLOOR, (
            f"columnar speedup x{speedup:.2f} below the {SPEEDUP_FLOOR}x floor"
        )

    def test_bench_columnar_pipeline(self, benchmark):
        catalog = columnar_catalog()
        plan = mapping_pipeline_plan()
        evaluator = Evaluator(catalog)
        evaluator.run(plan)  # compile once
        result = benchmark(lambda: _evaluate(evaluator, plan))
        assert len(result) > 0
