"""Durability layer A/B: write-ahead logging cost on suggestion refreshes.

Every recorded session action costs one JSON encode + one framed append
to the tenant's log (plus a periodic checkpoint compaction). This
benchmark drives the Figure-2 session twice — recorder attached and
logging to a real on-disk root, versus the plain in-memory session — and
times forced suggestion refreshes in both modes, asserting the
durable session's suggestion batches are *identical* to the plain ones
(recording is pure observation) and that the logging overhead stays
under the 10% ceiling.

The A/B gate reads the median of many paired per-refresh ratios, so the
few pairs a checkpoint compaction lands in do not count; checkpointing is
timed on its own: a snapshot of a session past one interval, which must
load back to the same state, and the recovery a tenant pays after
eviction: evict (snapshot) and re-attach (load + empty tail) one
65-action tenant under a session manager.
"""

from __future__ import annotations

import statistics
import tempfile
import time

from repro import CopyCatSession, build_scenario
from repro.durability import DURABILITY, DurabilityStore, digest_hash, recover_session, snapshot, state_digest
from repro.server import SessionManager, SharedBase

from .common import (
    format_table,
    import_contacts_via_session,
    import_shelters_via_session,
    table_series,
    write_report,
)

N_REFRESHES = 6
#: Timed refresh pairs; the gate reads the median of their ratios.
N_PAIRS = 300
K = 8


def _integration_session(root=None):
    """The Figure-2 session; with *root*, recorded to an on-disk store."""
    scenario = build_scenario(seed=5, n_shelters=10, noise=1)
    session = CopyCatSession(catalog=scenario.catalog, seed=1)
    store = None
    if root is not None:
        store = DurabilityStore(root)
        recover_session(session, "bench", store)
    import_shelters_via_session(scenario, session)
    import_contacts_via_session(scenario, session)
    session.start_integration("Shelters")
    return session, store


def _refresh_burst(session: CopyCatSession):
    """Forced refreshes: every one recomputes (and is logged, if durable)."""
    batches = []
    for _ in range(N_REFRESHES):
        batches.append(session.column_suggestions(k=K, refresh=True))
    return batches


def _batch_key(batch):
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


class TestDurabilityOverhead:
    def test_durability_overhead_under_ten_percent(self):
        """Write-ahead logging must cost <10% on a forced refresh.

        One session per mode, warmed, then N_PAIRS timed pairs of forced
        refreshes, the mode that goes first alternating from pair to pair.
        The gate reads the median of the per-pair durable/plain ratios: a
        pair's two refreshes run back to back, so slow drift and a busy
        neighbour hit both alike, and the few pairs a scheduler stall or a
        checkpoint compaction (amortized cost, timed on its own below)
        lands in do not move the median. A pair records one action, so it
        holds at most one compaction.
        """

        def timed_refresh(session) -> float:
            start = time.perf_counter()
            session.column_suggestions(k=K, refresh=True)
            return time.perf_counter() - start

        with tempfile.TemporaryDirectory() as root:
            plain_session, _ = _integration_session()
            durable_session, store = _integration_session(root)
            _refresh_burst(plain_session)
            _refresh_burst(durable_session)
            plain_times, durable_times = [], []
            for pair in range(N_PAIRS):
                if pair % 2:
                    durable_times.append(timed_refresh(durable_session))
                    plain_times.append(timed_refresh(plain_session))
                else:
                    plain_times.append(timed_refresh(plain_session))
                    durable_times.append(timed_refresh(durable_session))

            # Parity leg: recording is observation — identical batches,
            # provenance expressions included.
            assert _batch_key(_refresh_burst(durable_session)[-1]) == _batch_key(
                _refresh_burst(plain_session)[-1]
            )
            assert durable_session.durability.checkpoints > 0
            store.close()

        ratio = statistics.median(d / p for d, p in zip(durable_times, plain_times))
        overhead_pct = (ratio - 1.0) * 100.0
        headers = ["mode", "timed refreshes", "median ms/refresh"]
        rows = [
            ("durability off", N_PAIRS, f"{statistics.median(plain_times) * 1000:.2f}"),
            ("durability on", N_PAIRS, f"{statistics.median(durable_times) * 1000:.2f}"),
        ]
        write_report(
            "durability_overhead",
            format_table(headers, rows)
            + ["", f"write-ahead logging overhead {overhead_pct:+.1f}% on a "
                   f"forced refresh, median of {N_PAIRS} paired ratios "
                   "(10% ceiling; durable batches identical to in-memory ones)"],
            series={
                "table": table_series(headers, rows),
                "overhead_pct": overhead_pct,
                "n_pairs": N_PAIRS,
            },
        )
        assert overhead_pct < 10.0, (
            f"write-ahead logging costs {overhead_pct:.1f}% on suggestion "
            f"refresh, over the 10% budget"
        )

    def test_bench_durable_refresh(self, benchmark):
        with tempfile.TemporaryDirectory() as root:
            session, store = _integration_session(root)
            session.column_suggestions(k=K)  # prime

            def burst():
                return _refresh_burst(session)

            batches = benchmark(burst)
            assert batches[-1]
            store.close()

    def test_bench_durable_checkpoint(self, benchmark):
        with tempfile.TemporaryDirectory() as root:
            session, store = _integration_session(root)
            recorder = session.durability
            while recorder.actions_recorded < DURABILITY.checkpoint_interval:
                session.column_suggestions(k=K, refresh=True)

            assert benchmark(recorder.checkpoint)
            header, payload = snapshot.read_header(store.checkpoint_path(recorder.tenant).read_bytes())
            assert header["n_actions"] == recorder.next_seq
            restored = CopyCatSession(catalog=build_scenario(seed=5, n_shelters=10, noise=1).catalog, seed=1)
            snapshot.load(restored, payload)
            assert digest_hash(state_digest(restored)) == digest_hash(state_digest(session))
            store.close()

    def test_bench_durable_recover(self, benchmark):
        """Evict and re-attach one 65-action tenant: the eviction snapshot
        plus the recovery its next request pays."""
        scenario = build_scenario(seed=5, n_shelters=10, noise=1)
        with tempfile.TemporaryDirectory() as root:
            manager = SessionManager(SharedBase(scenario.catalog), durability_root=root)
            session = manager.session("bench")
            import_shelters_via_session(scenario, session)
            import_contacts_via_session(scenario, session)
            session.start_integration("Shelters")
            while session.durability.next_seq < 65:
                session.column_suggestions(k=K, refresh=True)
            live = digest_hash(state_digest(session))

            def evict_and_reattach():
                manager.evict("bench")
                return manager.session("bench")

            restored = benchmark(evict_and_reattach)
            assert restored.durability.next_seq == 65 and restored.durability.history == []
            assert digest_hash(state_digest(restored)) == live
            manager.shutdown()
