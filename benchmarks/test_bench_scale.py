"""A-5 / §5 "Increased complexity and scale".

"As we increase the number of sources, there will be increasingly many
possible queries and extractors. Open questions are how to present this to
the user, such that it remains manageable and understandable."

Sweep the catalog size with synthetic sources sharing attribute types;
measure (a) source-graph size, (b) raw completion count from one query,
(c) suggestion latency, and (d) how the relevance threshold and top-k cap
keep what the *user sees* bounded. Expected shape: edges and raw
completions grow super-linearly with sources while the presented list stays
k; latency stays interactive through ~40 sources.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import CopyCatSession
from repro.cache import CacheTiers
from repro.learning.integration import IntegrationLearner
from repro.substrate.relational import (
    Attribute,
    Catalog,
    Relation,
    Schema,
    SourceMetadata,
)
from repro.substrate.relational.schema import CITY, PLACE, STREET, ZIPCODE, Attribute
from repro.util.rng import make_rng

from .common import format_table, start_cold, table_series, write_report

SHARED_TYPES = [("City", CITY), ("Zip", ZIPCODE), ("Street", STREET), ("Name", PLACE)]


def synthetic_catalog(n_sources: int, seed: int = 7) -> Catalog:
    """A catalog of n sources, each sharing 1-2 typed attributes."""
    rng = make_rng(seed)
    catalog = Catalog()
    anchor = Relation(
        "Anchor",
        Schema([Attribute(name, stype) for name, stype in SHARED_TYPES[:3]]),
    )
    anchor.add(["Coconut Creek", "33063", "1 Main St"])
    catalog.add_relation(anchor, SourceMetadata(origin="paste"))
    for index in range(n_sources):
        shared = rng.sample(SHARED_TYPES, k=rng.randint(1, 2))
        attrs = [Attribute(name, stype) for name, stype in shared]
        attrs.append(Attribute(f"Extra{index}", PLACE if index % 3 else CITY))
        relation = Relation(f"Src{index:03d}", Schema(attrs))
        relation.add(["x"] * len(attrs))
        catalog.add_relation(relation, SourceMetadata(origin="import"))
    return catalog


class TestScale:
    def test_graph_grows_but_presented_list_stays_bounded(self):
        rows = []
        latencies = {}
        for n_sources in (5, 10, 20, 40):
            catalog = synthetic_catalog(n_sources)
            learner = IntegrationLearner(catalog)
            base = learner.base_query("Anchor")
            start = time.perf_counter()
            raw = learner.column_completions(base, k=10_000)
            latency = time.perf_counter() - start
            latencies[n_sources] = latency
            presented = learner.column_completions(base, k=5)
            rows.append(
                (
                    n_sources,
                    learner.graph.n_edges,
                    len(raw),
                    len(presented),
                    f"{latency * 1000:.1f}",
                )
            )
            assert len(presented) <= 5
        headers = ["sources", "graph edges", "raw completions", "presented (k=5)", "latency ms"]
        write_report(
            "scale_sources",
            format_table(headers, rows)
            + ["", "raw candidate space grows with sources; the user-visible"
                  " list stays k and ranked"],
            series={"headers": headers, "rows": [list(r) for r in rows]},
        )
        # The raw space grows with the catalog...
        assert rows[-1][2] > rows[0][2]
        # ...but ranking latency stays interactive.
        assert latencies[40] < 1.0

    def test_relevance_threshold_prunes_suggestions(self):
        catalog = synthetic_catalog(20)
        permissive = IntegrationLearner(catalog, relevance_threshold=2.0)
        strict = IntegrationLearner(catalog, relevance_threshold=0.9)
        base_p = permissive.base_query("Anchor")
        base_s = strict.base_query("Anchor")
        many = permissive.column_completions(base_p, k=10_000)
        few = strict.column_completions(base_s, k=10_000)
        assert len(few) < len(many)

    def test_bench_completions_at_forty_sources(self, benchmark):
        catalog = synthetic_catalog(40)
        learner = IntegrationLearner(catalog)
        base = learner.base_query("Anchor")
        completions = benchmark(lambda: learner.column_completions(base, k=5))
        assert completions


def _scale_session(n_sources: int = 40, tiers: CacheTiers | None = None) -> CopyCatSession:
    session = CopyCatSession(catalog=synthetic_catalog(n_sources), cache_tiers=tiers)
    session.start_integration("Anchor")
    return session


def _suggestion_key(batch):
    """User-visible batch content, provenance expressions included."""
    return [
        (s.source, s.attribute_names, s.values, [str(p) for p in s.provenances])
        for s in batch
    ]


class TestScaleCached:
    """The ``scale_sources_cached`` A/B: executed suggestions at 40 sources.

    The CI smoke job fails if refreshes on warm caches are not faster than
    refreshes that each start cold (the asserts below); the written report
    carries the measured speedup for EXPERIMENTS.md.
    """

    N_REFRESHES = 5
    #: Timed burst pairs; the gate reads the median of their ratios.
    N_PAIRS = 200

    def _burst(self, session):
        """N refreshes that reuse the session's standing batch."""
        last = None
        for _ in range(self.N_REFRESHES):
            last = session.column_suggestions(k=5)
        return last

    def _timed_burst(self, session, cold_tiers: CacheTiers | None = None):
        """Time N refreshes; return the last batch and each one's seconds.

        With *cold_tiers*, each refresh is forced and starts cold: the
        tiers and service memos are cleared before its clock starts.
        Without, the first is forced on the session's warm caches, so the
        plan cache, compiled-plan and scan memos and service memos do its
        work, and the rest reuse its batch, as a user's next actions after
        a change would.
        """
        batch, times = None, []
        for index in range(self.N_REFRESHES):
            if cold_tiers is not None:
                start_cold(session, cold_tiers)
            forced = cold_tiers is not None or index == 0
            start = time.perf_counter()
            batch = session.column_suggestions(k=5, refresh=True if forced else None)
            times.append(time.perf_counter() - start)
        return batch, times

    def test_cached_vs_uncached_at_forty_sources(self):
        """Bursts on warm caches must beat bursts that start cold by 2x.

        One session per mode, each primed, then N_PAIRS timed pairs of
        bursts, the mode that goes first alternating from pair to pair. The
        gate reads the median of the per-pair cold/warm burst ratios, so a
        scheduler stall that lands in a few pairs does not move it. The
        report also carries the median ratio of the bursts' first, forced
        refreshes alone: what the cache layers save without batch reuse.
        """
        tiers = CacheTiers()
        cold = _scale_session(40, tiers)
        warm = _scale_session(40)
        cold.column_suggestions(k=5, refresh=True)
        warm.column_suggestions(k=5)
        gc.collect()

        cold_times, warm_times = [], []
        for pair in range(self.N_PAIRS):
            if pair % 2:
                cached, warm_burst = self._timed_burst(warm)
                uncached, cold_burst = self._timed_burst(cold, cold_tiers=tiers)
            else:
                uncached, cold_burst = self._timed_burst(cold, cold_tiers=tiers)
                cached, warm_burst = self._timed_burst(warm)
            cold_times.append(cold_burst)
            warm_times.append(warm_burst)

        # Correctness A/B gate: identical results, provenance included.
        assert _suggestion_key(cached) == _suggestion_key(uncached)

        speedup = statistics.median(
            sum(c) / sum(w) for c, w in zip(cold_times, warm_times)
        )
        forced_speedup = statistics.median(
            c[0] / w[0] for c, w in zip(cold_times, warm_times)
        )

        def median_ms(bursts, pick):
            return f"{statistics.median(pick(b) for b in bursts) * 1000:.3f}"

        headers = ["mode", "timed bursts", "median ms/burst", "median ms first refresh"]
        rows = [
            ("cold each refresh", self.N_PAIRS, median_ms(cold_times, sum),
             median_ms(cold_times, lambda b: b[0])),
            ("warm caches", self.N_PAIRS, median_ms(warm_times, sum),
             median_ms(warm_times, lambda b: b[0])),
        ]
        write_report(
            "scale_sources_cached",
            format_table(headers, rows)
            + ["", f"speedup x{speedup:.1f} at 40 sources, median of {self.N_PAIRS}"
                   f" paired ratios of {self.N_REFRESHES}-refresh bursts (first"
                   f" forced refresh alone x{forced_speedup:.2f}); cached =="
                   " uncached including provenance"],
            series={
                "table": table_series(headers, rows),
                "speedup": speedup,
                "forced_refresh_speedup": forced_speedup,
                "n_sources": 40,
                "n_refreshes": self.N_REFRESHES,
                "n_pairs": self.N_PAIRS,
            },
        )
        # Hard gate: warm caches must beat cold refreshes by the 2x floor.
        assert speedup >= 2.0, f"cache speedup x{speedup:.2f} below the 2x floor"

    def test_bench_scale_sources_cached(self, benchmark):
        session = _scale_session(40)
        session.column_suggestions(k=5)  # prime

        def burst():
            return self._burst(session)

        batch = benchmark(burst)
        assert batch is not None
