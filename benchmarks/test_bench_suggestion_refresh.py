"""Cache layer A/B: repeated ``column_suggestions`` refreshes.

The paper's interaction loop re-ranks and re-executes candidate queries
after *every* user action; before the caching layer each
``column_suggestions`` call re-evaluated every candidate plan and re-hit
every service row-by-row. This benchmark drives the Figure-2 session and
measures bursts of suggestion refreshes with warm caches (plan cache +
compiled-plan and scan memos + service memo + session dirty-flag reuse)
versus every refresh starting cold: the session's own ``CacheTiers`` and
every service memo are cleared before each forced refresh
(``refresh=True``, so the dirty-flag reuse never serves a batch) —
asserting the cached batch is *identical* to the uncached one, provenance
expressions included, and at least 2× faster on the median of paired
bursts.
"""

from __future__ import annotations

import gc
import statistics
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
#: Timed burst pairs; the gate reads the median of their ratios.
N_PAIRS = 100
K = 8


def _integration_session(tiers: CacheTiers | None = None) -> CopyCatSession:
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1, cache_tiers=tiers)
    import_shelters_via_session(scenario, session)
    import_contacts_via_session(scenario, session)
    session.start_integration("Shelters")
    return session


def _refresh_burst(session: CopyCatSession):
    """N refreshes that reuse the session's standing batch."""
    return [session.column_suggestions(k=K) for _ in range(N_REFRESHES)]


def _timed_burst(session: CopyCatSession, cold_tiers: CacheTiers | None = None):
    """Time N refreshes; return the last batch and the burst's seconds.

    With *cold_tiers*, each refresh is forced and starts cold: the tiers
    and service memos are cleared before its clock starts. Without, the
    first is forced on the session's warm caches and the rest reuse its
    batch, as a user's next actions after a change would.
    """
    batch, elapsed = None, 0.0
    for index in range(N_REFRESHES):
        if cold_tiers is not None:
            start_cold(session, cold_tiers)
        forced = cold_tiers is not None or index == 0
        start = time.perf_counter()
        batch = session.column_suggestions(k=K, refresh=True if forced else None)
        elapsed += time.perf_counter() - start
    return batch, elapsed


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
        """Bursts on warm caches must beat bursts that start cold by 2x.

        One session per mode, each primed, then N_PAIRS timed pairs of
        bursts, the mode that goes first alternating from pair to pair. The
        gate reads the median of the per-pair cold/warm burst ratios, so a
        scheduler stall that lands in a few pairs does not move it.
        """
        tiers = CacheTiers()
        cold = _integration_session(tiers)
        warm = _integration_session()
        cold.column_suggestions(k=K, refresh=True)
        warm.column_suggestions(k=K)
        gc.collect()

        uncached_times, cached_times = [], []
        for pair in range(N_PAIRS):
            if pair % 2:
                cached, cached_s = _timed_burst(warm)
                uncached, uncached_s = _timed_burst(cold, cold_tiers=tiers)
            else:
                uncached, uncached_s = _timed_burst(cold, cold_tiers=tiers)
                cached, cached_s = _timed_burst(warm)
            uncached_times.append(uncached_s)
            cached_times.append(cached_s)

        # Correctness A/B: cached == uncached, provenance included.
        assert _batch_key(cached) == _batch_key(uncached)

        speedup = statistics.median(u / c for u, c in zip(uncached_times, cached_times))
        headers = ["mode", "timed bursts", "median ms/burst", "median ms/refresh"]
        rows = []
        for mode, times in (("cold each refresh", uncached_times), ("warm caches", cached_times)):
            median_ms = statistics.median(times) * 1000
            rows.append((mode, N_PAIRS, f"{median_ms:.2f}", f"{median_ms / N_REFRESHES:.2f}"))
        write_report(
            "suggestion_refresh",
            format_table(headers, rows)
            + ["", f"speedup x{speedup:.1f}, median of {N_PAIRS} paired ratios of"
                   f" {N_REFRESHES}-refresh bursts (cached batches identical to"
                   " uncached, provenance expressions included)"],
            series={
                "table": table_series(headers, rows),
                "speedup": speedup,
                "n_refreshes": N_REFRESHES,
                "n_pairs": N_PAIRS,
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
