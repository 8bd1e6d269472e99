"""Unit tests for the observability layer (repro.obs).

Covers the acceptance criteria from the observability issue: nested span
trees, disabled-tracer no-op semantics, histogram percentile math, and the
exporter round-tripping cleanly through ``json.loads``.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro import obs
from repro.cache import CACHE
from repro.obs import (
    METRICS,
    NULL_SPAN,
    TRACER,
    Metrics,
    Tracer,
    observability_snapshot,
    percentile,
    render_span_tree,
    render_summary,
    span_to_dict,
    to_json,
    traced,
)
from repro.obs.registry import DECLARED_COUNTERS, DECLARED_GAUGES
from repro.server import SERVER


@pytest.fixture
def tracer():
    t = Tracer()
    t.enable()
    return t


@pytest.fixture
def metrics():
    m = Metrics()
    m.enable()
    return m


class TestSpans:
    def test_nested_spans_form_a_tree(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    inner.set("depth", 3)
            with tracer.span("sibling"):
                pass
        roots = tracer.roots()
        assert len(roots) == 1
        assert roots[0] is outer
        assert [child.name for child in outer.children] == ["middle", "sibling"]
        assert middle.children[0] is inner
        assert inner.parent is middle
        assert middle.parent is outer
        assert inner.attributes == {"depth": 3}

    def test_span_records_wall_and_cpu_time(self, tracer):
        with tracer.span("timed") as span:
            sum(range(10_000))
        assert span.wall_ms is not None and span.wall_ms >= 0.0
        assert span.cpu_ms is not None and span.cpu_ms >= 0.0

    def test_current_tracks_the_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_iter_walks_depth_first(self, tracer):
        with tracer.span("root"):
            with tracer.span("left"):
                with tracer.span("left.leaf"):
                    pass
            with tracer.span("right"):
                pass
        (root,) = tracer.roots()
        assert [s.name for s in root.iter()] == ["root", "left", "left.leaf", "right"]

    def test_find_locates_descendants(self, tracer):
        with tracer.span("root"):
            with tracer.span("x"):
                with tracer.span("needle"):
                    pass
        (root,) = tracer.roots()
        assert root.find("needle") is not None
        assert root.find("absent") is None

    def test_multiple_roots_accumulate(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots()] == ["first", "second"]
        tracer.clear()
        assert list(tracer.roots()) == []

    def test_threads_nest_spans_under_their_own_parents(self, tracer):
        # Both threads hold their root open while the other opens a
        # child, so a shared stack would cross-link the two trees.
        barrier = threading.Barrier(2, timeout=5.0)

        def work(tag):
            with tracer.span(f"{tag}.root"):
                barrier.wait()
                with tracer.span(f"{tag}.child"):
                    barrier.wait()
                barrier.wait()

        threads = [threading.Thread(target=work, args=(tag,)) for tag in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        roots = sorted(tracer.roots(), key=lambda span: span.name)
        assert [root.name for root in roots] == ["a.root", "b.root"]
        for root, tag in zip(roots, "ab"):
            (child,) = root.children
            assert child.name == f"{tag}.child" and child.parent is root
            assert child.children == []
        assert tracer.current is None

    def test_many_threads_keep_every_tree_whole(self, tracer):
        n_threads, rounds = 8, 50
        start = threading.Barrier(n_threads, timeout=5.0)

        def work(tag):
            start.wait()
            for _ in range(rounds):
                with tracer.span(tag):
                    with tracer.span(tag):
                        with tracer.span(tag):
                            pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        roots = tracer.roots()
        assert len(roots) == n_threads * rounds
        for root in roots:
            assert [span.name for span in root.iter()] == [root.name] * 3

    def test_traced_decorator_wraps_calls(self, tracer):
        @traced("my.op", tracer=tracer)
        def work(x):
            return x * 2

        assert work(21) == 42
        (root,) = tracer.roots()
        assert root.name == "my.op"

    def test_traced_decorator_defaults_to_function_name(self, tracer):
        @traced(tracer=tracer)
        def helper():
            return "ok"

        helper()
        assert tracer.roots()[0].name.endswith("helper")


class TestDisabledTracer:
    def test_disabled_span_is_the_null_singleton(self):
        t = Tracer()
        assert not t.enabled
        span = t.span("anything")
        assert span is NULL_SPAN
        assert t.span("other") is NULL_SPAN  # always the same object

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.set("key", "value")  # must not raise, must not record
        assert not NULL_SPAN.is_recording()

    def test_disabled_tracer_records_nothing(self):
        t = Tracer()
        with t.span("ghost"):
            with t.span("ghost.child"):
                pass
        assert list(t.roots()) == []
        assert t.current is None

    def test_traced_decorator_is_passthrough_when_disabled(self):
        t = Tracer()

        @traced("never.recorded", tracer=t)
        def work():
            return 7

        assert work() == 7
        assert list(t.roots()) == []

    def test_enable_disable_round_trip(self):
        t = Tracer()
        t.enable()
        with t.span("seen"):
            pass
        t.disable()
        with t.span("unseen"):
            pass
        assert [r.name for r in t.roots()] == ["seen"]


class TestMetrics:
    def test_counters_accumulate(self, metrics):
        metrics.inc("hits")
        metrics.inc("hits", 4)
        assert metrics.counter_value("hits") == 5
        assert metrics.counter_value("absent") == 0

    def test_gauges_overwrite(self, metrics):
        metrics.gauge("depth", 3)
        metrics.gauge("depth", 9)
        assert metrics.gauge_value("depth") == 9

    def test_histogram_summary(self, metrics):
        for v in [1.0, 2.0, 3.0, 4.0, 100.0]:
            metrics.observe("lat", v)
        summary = metrics.histogram_summary("lat")
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(22.0)
        assert summary["p50"] == 3.0
        assert summary["p95"] == 100.0
        assert summary["max"] == 100.0

    def test_timer_observes_elapsed_ms(self, metrics):
        with metrics.timer("op_ms"):
            sum(range(1000))
        values = metrics.histogram_values("op_ms")
        assert len(values) == 1
        assert values[0] >= 0.0

    def test_disabled_metrics_record_nothing(self):
        m = Metrics()
        m.inc("c")
        m.gauge("g", 1)
        m.observe("h", 1.0)
        with m.timer("t"):
            pass
        assert m.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_reset_clears_all_series(self, metrics):
        metrics.inc("c")
        metrics.observe("h", 1.0)
        metrics.reset()
        assert metrics.counter_value("c") == 0
        assert metrics.histogram_values("h") == []

    def test_snapshot_shape(self, metrics):
        metrics.inc("queries", 2)
        metrics.gauge("k", 5)
        metrics.observe("ms", 1.5)
        snap = metrics.snapshot()
        assert snap["counters"] == {"queries": 2}
        assert snap["gauges"] == {"k": 5}
        assert snap["histograms"]["ms"]["count"] == 1


class TestPercentileMath:
    def test_nearest_rank_on_known_series(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 1.00) == 100

    def test_small_series(self):
        assert percentile([7.0], 0.50) == 7.0
        assert percentile([7.0], 0.95) == 7.0
        assert percentile([3.0, 1.0], 0.50) == 1.0  # nearest-rank: ceil(0.5*2)=1st
        assert percentile([3.0, 1.0], 0.95) == 3.0

    def test_q_zero_is_min(self):
        assert percentile([5.0, 2.0, 9.0], 0.0) == 2.0

    def test_unsorted_input_is_sorted_internally(self):
        assert percentile([9, 1, 5, 3, 7], 0.5) == 5

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestExporters:
    def _trace_something(self, tracer, metrics):
        with tracer.span("root") as root:
            root.set("k", "v")
            with tracer.span("child") as child:
                child.set("n", 3)
        metrics.inc("events", 2)
        metrics.observe("ms", 1.25)

    def test_span_to_dict_round_trips_through_json(self, tracer, metrics):
        self._trace_something(tracer, metrics)
        (root,) = tracer.roots()
        payload = json.loads(json.dumps(span_to_dict(root)))
        assert payload["name"] == "root"
        assert payload["attributes"] == {"k": "v"}
        assert payload["wall_ms"] >= 0.0
        (child,) = payload["children"]
        assert child["name"] == "child"
        assert child["attributes"] == {"n": 3}
        assert child["children"] == []

    def test_observability_snapshot_round_trips(self, tracer, metrics):
        self._trace_something(tracer, metrics)
        raw = to_json(tracer=tracer, metrics=metrics)
        payload = json.loads(raw)
        assert [s["name"] for s in payload["spans"]] == ["root"]
        assert payload["metrics"]["counters"] == {"events": 2}
        assert payload["metrics"]["histograms"]["ms"]["count"] == 1

    def test_snapshot_matches_to_json(self, tracer, metrics):
        self._trace_something(tracer, metrics)
        snap = observability_snapshot(tracer=tracer, metrics=metrics)
        assert json.loads(to_json(tracer=tracer, metrics=metrics)) == json.loads(
            json.dumps(snap)
        )

    def test_render_span_tree_indents_children(self, tracer, metrics):
        self._trace_something(tracer, metrics)
        lines = render_span_tree(tracer.roots())
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "wall=" in lines[0] and "cpu=" in lines[0]
        assert "n=3" in lines[1]


class TestGlobalSingletons:
    def test_globals_start_disabled(self):
        # Other tests must not leak enabled state into the process globals.
        assert not TRACER.enabled
        assert not METRICS.enabled

    def test_instrumented_code_is_silent_by_default(self):
        from repro import CopyCatSession, build_scenario

        scenario = build_scenario(seed=3, n_shelters=4)
        CopyCatSession(catalog=scenario.catalog, seed=1)
        assert list(TRACER.roots()) == []
        assert METRICS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def parse_summary(lines):
    """``{full metric name: value}`` from the summary's group lines."""
    printed: dict[str, float] = {}
    for line in lines:
        if line.startswith(("histogram ", "knobs:")):
            continue
        group, _, values = line.partition(":")
        for token in values.split():
            name, _, value = token.partition("=")
            full = f"{group}.{name}"
            assert full not in printed, f"{full} printed twice"
            printed[full] = float(value)
    return printed


class TestSummary:
    def test_one_line_per_group_with_every_value_once(self):
        from .test_obs_overhead import run_fig1_import

        obs.reset()
        obs.enable()
        try:
            run_fig1_import()
            lines = render_summary()
            printed = parse_summary(lines)
            gauges = METRICS.snapshot()["gauges"]
            recorded = {**METRICS.snapshot()["counters"], **gauges}
            expected = {
                name: METRICS.gauge_value(name) if name in gauges else METRICS.counter_value(name)
                for name in printed
            }
            histograms = sorted(METRICS.snapshot()["histograms"])
            with CACHE.disabled("blocking"), SERVER.overridden(workers=2):
                knobs = render_summary()[-1]
        finally:
            obs.disable()
            obs.reset()
        declared = [*DECLARED_COUNTERS, *DECLARED_GAUGES]
        groups = {line.partition(":")[0] for line in lines}
        assert groups >= {name.partition(".")[0] for name in declared}
        for prefix in (
            "cache", "resilience", "drift", "analysis", "columnar",
            "server", "durability", "overload", "knobs",
        ):
            assert prefix in groups
        # Every declared name shows (0 when unrecorded), and so does every
        # recorded one, wildcard-covered names included.
        assert set(printed) >= {name for name in declared if "*" not in name} | set(recorded)
        assert printed == expected
        assert printed["session.pastes"] == 2
        assert [line.split()[1].rstrip(":") for line in lines if line.startswith("histogram ")] == histograms
        assert "REPRO_CACHE_BLOCKING=False" in knobs and "REPRO_SERVER_WORKERS=2" in knobs
