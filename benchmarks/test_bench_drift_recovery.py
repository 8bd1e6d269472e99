"""Drift-recovery benchmark: self-healing wrappers under page perturbation.

Wrappers are induced once from a copy-paste demonstration; real sources
re-template, reorder fields, inject junk, and sometimes die. This benchmark
drives the session resync loop over the full seeded perturbation sweep
(:data:`repro.drift.PERTURBATIONS` — every recoverable and unrecoverable
kind at several scenario seeds) and gates on the drift layer's promises:

- **>=90% silent re-induction on recoverable drifts**: a retemplated,
  reordered, junk-injected, class-churned, or truncated page heals without
  user involvement, and the healed extraction matches the perturbation's
  known-good expected rows exactly;
- **zero garbage rows committed**: across the whole sweep, every row in the
  catalog passes row-level validation — junk is quarantined with provenance,
  never committed;
- **quarantine, never crash, on unrecoverable drifts**: wiped or blanked
  sources quarantine wholesale (trust cut, edge costs penalized, ``Scan``
  degraded) while the last-known-good rows keep serving;
- **near-zero overhead when idle**: the drift work a suggestion refresh
  does on an idle session — rebuilding the drift and quarantine penalties
  of edge costs through ``absorb_drift_events()`` — costs at most
  ``OVERHEAD_TOLERANCE`` of the forced refresh itself. The per-``Scan``
  quarantine check is one dict lookup and is not timed on its own.

Determinism: perturbations are rendered by an sha256-derived RNG keyed on
``(seed, kind)``, so two runs drift — and heal — identically.
"""

from __future__ import annotations

import time

from repro import CopyCatSession, build_scenario
from repro.drift import (
    RECOVERABLE,
    UNRECOVERABLE,
    perturb_page,
    quarantine_reason,
    validate_row,
)
from repro.obs import METRICS

from .common import (
    format_table,
    import_contacts_via_session,
    import_shelters_via_session,
    table_series,
    write_report,
)

SCENARIO_SEEDS = (3, 5, 11)
PERTURB_SEED = 7
HEAL_TARGET = 0.9
#: max tolerated idle drift work, as a share of a forced suggestion refresh.
OVERHEAD_TOLERANCE = 0.05


def _imported_session(seed: int):
    scenario = build_scenario(seed=seed, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    import_shelters_via_session(scenario, session)
    return scenario, session


def _committed_rows(catalog, name: str) -> set[tuple[str, ...]]:
    return {tuple(str(v) for v in row.values) for row in catalog.relation(name)}


def _garbage_count(catalog, name: str) -> int:
    relation = catalog.relation(name)
    width = len(relation.schema.attributes)
    return sum(
        1
        for row in relation
        if validate_row([str(v) for v in row.values], width) is not None
    )


class TestDriftRecovery:
    def test_recoverable_drifts_heal_silently(self):
        attempts = []
        crashes: list[tuple[int, str, BaseException]] = []
        for seed in SCENARIO_SEEDS:
            for kind in sorted(RECOVERABLE):
                scenario, session = _imported_session(seed)
                url = scenario.list_urls()[0]
                result = perturb_page(scenario.website, url, kind, seed=PERTURB_SEED)
                start = time.perf_counter()
                try:
                    report = session.resync_source("Shelters")
                except Exception as exc:  # the failure mode this bench gates
                    crashes.append((seed, kind, exc))
                    continue
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                committed = _committed_rows(scenario.catalog, "Shelters")
                healed = (
                    report.action in ("clean", "reinduced")
                    and committed == set(result.expected_rows)
                )
                attempts.append(
                    {
                        "seed": seed,
                        "kind": kind,
                        "action": report.action,
                        "healed": healed,
                        "rows": report.rows_committed,
                        "quarantined": report.rows_quarantined,
                        "garbage": _garbage_count(scenario.catalog, "Shelters"),
                        "ms": elapsed_ms,
                    }
                )

        assert not crashes, f"resync raised on recoverable drift: {crashes}"
        healed = sum(1 for a in attempts if a["healed"])
        heal_rate = healed / len(attempts)
        garbage = sum(a["garbage"] for a in attempts)

        headers = [
            "perturbation", "attempts", "healed", "actions",
            "rows committed", "rows quarantined", "garbage", "mean ms",
        ]
        rows = []
        for kind in sorted(RECOVERABLE):
            mine = [a for a in attempts if a["kind"] == kind]
            rows.append(
                (
                    kind,
                    len(mine),
                    sum(1 for a in mine if a["healed"]),
                    "/".join(sorted({a["action"] for a in mine})),
                    sum(a["rows"] for a in mine),
                    sum(a["quarantined"] for a in mine),
                    sum(a["garbage"] for a in mine),
                    f"{sum(a['ms'] for a in mine) / len(mine):.1f}",
                )
            )
        write_report(
            "drift_recovery",
            format_table(headers, rows)
            + [
                "",
                f"heal rate {heal_rate:.0%} over {len(attempts)} recoverable "
                f"drifts ({len(SCENARIO_SEEDS)} scenario seeds x "
                f"{len(RECOVERABLE)} perturbation kinds); "
                f"{garbage} garbage rows committed",
            ],
            series={
                "table": table_series(headers, rows),
                "heal_rate": heal_rate,
                "heal_target": HEAL_TARGET,
                "scenario_seeds": list(SCENARIO_SEEDS),
                "perturb_seed": PERTURB_SEED,
            },
        )

        assert heal_rate >= HEAL_TARGET, (
            f"heal rate {heal_rate:.0%} below {HEAL_TARGET:.0%}: "
            f"{[a for a in attempts if not a['healed']]}"
        )
        assert garbage == 0, f"{garbage} malformed rows committed"

    def test_unrecoverable_drifts_quarantine_never_crash(self):
        for seed in SCENARIO_SEEDS:
            for kind in sorted(UNRECOVERABLE):
                scenario, session = _imported_session(seed)
                last_good = _committed_rows(scenario.catalog, "Shelters")
                url = scenario.list_urls()[0]
                perturb_page(scenario.website, url, kind, seed=PERTURB_SEED)
                report = session.resync_source("Shelters")  # must not raise
                assert report.action == "quarantined", (seed, kind, report)
                assert quarantine_reason(scenario.catalog, "Shelters")
                # last-known-good rows keep serving, degraded not gone
                assert _committed_rows(scenario.catalog, "Shelters") == last_good
                assert scenario.catalog.metadata("Shelters").trust < 1.0

    def test_idle_overhead_within_tolerance(self):
        """An idle session's drift work is <5% of a forced refresh."""
        scenario, session = _imported_session(5)
        import_contacts_via_session(scenario, session)
        session.start_integration("Shelters")
        learner = session.integration_learner

        def floor(call) -> float:
            def once() -> float:
                start = time.perf_counter()
                call()
                return time.perf_counter() - start

            for _ in range(3):
                once()
            return min(once() for _ in range(30))

        refresh_s = floor(lambda: session.column_suggestions(k=8, refresh=True))
        absorb_s = floor(learner.absorb_drift_events)
        assert absorb_s <= refresh_s * OVERHEAD_TOLERANCE, (
            f"idle absorb_drift_events {absorb_s * 1e6:.2f}us exceeds "
            f"{OVERHEAD_TOLERANCE:.0%} of a forced refresh ({refresh_s * 1000:.2f}ms)"
        )

    def test_bench_drift_resync(self, benchmark):
        """Timed: one full resync cycle (refetch, re-extract, verify, commit)."""
        scenario, session = _imported_session(5)

        def resync():
            return session.resync_source("Shelters")

        report = benchmark(resync)
        assert report.action == "clean"
        assert METRICS.counter_value("drift.resyncs") > 0
