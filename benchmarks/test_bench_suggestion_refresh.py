"""Cache layer A/B: repeated ``column_suggestions`` refreshes.

The paper's interaction loop re-ranks and re-executes candidate queries
after *every* user action; before the caching layer each
``column_suggestions`` call re-evaluated every candidate plan and re-hit
every service row-by-row. This benchmark drives the Figure-2 session and
measures a burst of suggestion refreshes with warm caches (plan cache +
compiled-plan and scan memos + service memo + session dirty-flag reuse)
versus every refresh starting cold: the session's own ``CacheTiers`` and
every service memo are cleared before each forced refresh
(``refresh=True``, so the dirty-flag reuse never serves a batch) —
asserting the cached batch is *identical* to the uncached one, provenance
expressions included, and at least 2× faster.
"""

from __future__ import annotations

import gc
import time

from repro import CopyCatSession, build_scenario
from repro.cache import CacheTiers

from .common import (
    format_table,
    import_contacts_via_session,
    import_shelters_via_session,
    start_cold,
    table_series,
    write_report,
)

N_REFRESHES = 6
K = 8


def _integration_session(tiers: CacheTiers | None = None) -> CopyCatSession:
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1, cache_tiers=tiers)
    import_shelters_via_session(scenario, session)
    import_contacts_via_session(scenario, session)
    session.start_integration("Shelters")
    return session


def _refresh_burst(session: CopyCatSession, cold_tiers: CacheTiers | None = None):
    """N refreshes; with *cold_tiers*, each is forced and starts cold."""
    batches = []
    for _ in range(N_REFRESHES):
        if cold_tiers is None:
            batches.append(session.column_suggestions(k=K))
        else:
            start_cold(session, cold_tiers)
            batches.append(session.column_suggestions(k=K, refresh=True))
    return batches


def _batch_key(batch):
    """Everything user-visible about a suggestion batch, incl. provenance."""
    return [
        (
            s.source,
            s.attribute_names,
            s.values,
            [str(p) for p in s.provenances],
            s.coverage,
        )
        for s in batch
    ]


class TestSuggestionRefresh:
    def test_cached_refreshes_match_uncached_and_are_faster(self):
        tiers = CacheTiers()
        cold = _integration_session(tiers)
        gc.collect()
        start = time.perf_counter()
        uncached_batches = _refresh_burst(cold, cold_tiers=tiers)
        uncached_s = time.perf_counter() - start

        warm = _integration_session()
        gc.collect()
        start = time.perf_counter()
        cached_batches = _refresh_burst(warm)
        cached_s = time.perf_counter() - start

        # Correctness A/B: cached == uncached, provenance included.
        assert _batch_key(cached_batches[-1]) == _batch_key(uncached_batches[-1])
        for batch in cached_batches[1:]:
            assert _batch_key(batch) == _batch_key(cached_batches[0])

        speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
        headers = ["mode", "refreshes", "total ms", "ms/refresh"]
        rows = [
            ("cold each refresh", N_REFRESHES, f"{uncached_s * 1000:.1f}",
             f"{uncached_s * 1000 / N_REFRESHES:.1f}"),
            ("warm caches", N_REFRESHES, f"{cached_s * 1000:.1f}",
             f"{cached_s * 1000 / N_REFRESHES:.1f}"),
        ]
        write_report(
            "suggestion_refresh",
            format_table(headers, rows)
            + ["", f"speedup x{speedup:.1f} (cached batches identical to uncached,"
                   " provenance expressions included)"],
            series={
                "table": table_series(headers, rows),
                "speedup": speedup,
                "n_refreshes": N_REFRESHES,
            },
        )
        assert speedup >= 2.0, f"cache speedup x{speedup:.2f} below the 2x floor"

    def test_feedback_invalidates_reused_suggestions(self):
        """Reuse must *not* survive feedback: demotion changes the batch."""
        session = _integration_session()
        first = session.column_suggestions(k=K)
        again = session.column_suggestions(k=K)
        assert again is first  # dirty-flag reuse, no recompute
        session.promote_row(0)  # trust feedback bumps the catalog version
        refreshed = session.column_suggestions(k=K)
        assert refreshed is not first

    def test_bench_suggestion_refresh_cached(self, benchmark):
        session = _integration_session()
        session.column_suggestions(k=K)  # prime

        def burst():
            return _refresh_burst(session)

        batches = benchmark(burst)
        assert batches[-1]
