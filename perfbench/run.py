"""End-to-end benchmark of the CopyCat reproduction.

Usage::

    python3 perfbench/run.py --workload journey --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs one workload (see ``perfbench/workloads.py`` and
``perfbench/README.md``) for ``--seconds`` seconds, checks the program's
outputs, prints every metric by name with its unit and sample count, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every other unit of work runs with
layer timing installed and the metrics are the per-layer ones.

Every timing is reported at reference speed: raw time scaled by a fixed
nominal time over the reference loop's time measured in the quiet gaps
next to it (``perfbench/refspeed.py``).
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Set-up is repeated in this many fresh processes besides the run's own.
SETUP_PROBES = 4
#: A traced run times at least this many units (half of them traced).
MIN_TRACED_UNITS = 4
#: peak_rss_mb is the peak after this many units: a fixed amount of work,
#: however fast the machine runs (the caches keep filling for a while).
RSS_UNITS = 8
#: Reference loop repetitions on each side of set-up, and in every gap.
SETUP_REFERENCE_REPEATS = 5
GAP_REFERENCE_REPEATS = 3

# Traced layers: (span name, whether calls are reported too). A layer's
# `_ms` is its self time per operation -- per journey on journey and
# durable, per request on tenants -- and `_calls` its calls per operation.
SPAN_LAYERS = (
    ("structure.generalize", True),
    ("model.recognize", True),
    ("model.learn", True),
    ("autocomplete", False),
    ("session", False),
    ("integration.completions", False),
    ("integration.steiner", False),
    ("integration.mira", False),
    ("linking.link", True),
    ("services.invoke", True),
    ("engine.run", True),
    ("durability.encode", False),
    ("durability.append", False),
    ("durability.checkpoint", False),
    ("durability.read", False),
    ("durability.replay", False),
)


def _layer_ms_name(layer: str) -> str:
    return f"{layer}.self_ms" if "." not in layer else f"{layer}_ms"


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    names = []
    for layer, with_calls in SPAN_LAYERS:
        names.append((_layer_ms_name(layer), "ms", "lower"))
        if with_calls:
            names.append((f"{layer}_calls", "count", "lower"))
    names += [
        ("durability.append_bytes", "bytes", "lower"),
        ("durability.checkpoint_bytes", "bytes", "lower"),
        ("durability.checkpoints", "count", "lower"),
        ("durability.replayed_actions", "count", "lower"),
        ("durability.wal_bytes_per_action", "bytes", "lower"),
        ("cache.plan_hit_ratio", "ratio", "higher"),
        ("cache.plan_evictions", "count", "lower"),
        ("cache.compile_hit_ratio", "ratio", "higher"),
        ("cache.scan_hit_ratio", "ratio", "higher"),
        ("cache.analysis_hit_ratio", "ratio", "higher"),
        ("server.queue_wait_ms.p50", "ms", "lower"),
        ("server.queue_wait_ms.p90", "ms", "lower"),
        ("server.execute_ms.p50", "ms", "lower"),
        ("server.shed", "count", "lower"),
        ("server.expired", "count", "lower"),
        ("server.brownout_entered", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return names


END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("task_ms.p50", "ms"),
)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def locate_program() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="journey, tenants, durable or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--units", type=int, default=0, help="run exactly this many units (ignores --seconds)")
    parser.add_argument("--spans", default="", help="write the traced run's spans to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Run:
    """One measured run of one workload."""

    def __init__(self, args):
        from refspeed import Normaliser, time_reference
        from workloads import WORKLOADS

        self.args = args
        # Set-up is scaled by the reference timed on both sides of it; the
        # loop's own time before set-up is not counted as set-up.
        before = time_reference(SETUP_REFERENCE_REPEATS + 1)[1:]
        self.workload = WORKLOADS[args.workload](args.seed)
        self.workload.setup()
        self.setup_raw = time.perf_counter() - _STARTED - sum(before)
        self.norm = Normaliser(repeats=SETUP_REFERENCE_REPEATS)
        self.norm.gap()  # gap 0: right after set-up, before unit 0
        self.norm.repeats = GAP_REFERENCE_REPEATS
        self.setup_ref = statistics.median(before + self.norm.samples)
        self.traced_units: list[int] = []
        self.tracer = None
        self.setups: list[tuple[float, float]] = []
        self.units = 0
        self.peak_rss_mb = 0.0

    def measure(self) -> None:
        args, workload, norm = self.args, self.workload, self.norm
        if args.trace:
            from tracing import LayerTracer, register_layers

            self.tracer = LayerTracer()
            register_layers(self.tracer)
        tracer = self.tracer
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
                self.traced_units.append(index)
            try:
                workload.unit(index, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            workload.after_unit(index)
            if index + 1 == RSS_UNITS:
                self.peak_rss_mb = peak_rss_mb()
            # A full collection in every gap: the collector's long pauses
            # land here, timed apart, not inside a random request.
            started = time.perf_counter()
            gc.collect()
            workload.samples["gap_gc_ms"].append((time.perf_counter() - started, index))
            norm.gap()  # gap index + 1: after unit `index`
            index += 1
            if args.units:
                if index >= args.units:
                    break
            elif time.perf_counter() >= deadline and (not args.trace or index >= MIN_TRACED_UNITS):
                break
        self.units = index
        if index < RSS_UNITS:
            self.peak_rss_mb = peak_rss_mb()
        workload.finish()
        if tracer is not None and args.spans:
            tracer.write(args.spans)

    # -- helpers -------------------------------------------------------------
    def normalised(self, metric: str, units=None) -> list[float]:
        """Samples of *metric* in ms at reference speed (optionally only
        from *units*)."""
        keep = None if units is None else set(units)
        return [
            raw * 1000.0 * self.norm.factor(unit)
            for raw, unit in self.workload.samples.get(metric, ())
            if keep is None or unit in keep
        ]

    def raw(self, metric: str) -> list[float]:
        return [raw * 1000.0 for raw, _ in self.workload.samples.get(metric, ())]

    def untraced_units(self) -> list[int]:
        traced = set(self.traced_units)
        return [u for u in range(self.units) if u not in traced]

    def setup_samples(self) -> list[tuple[float, float]]:
        """(normalised, raw) set-up seconds: this run plus fresh processes."""
        from refspeed import NOMINAL_S

        samples = [(self.setup_raw * NOMINAL_S / self.setup_ref, self.setup_raw)]
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
                   "--seed", str(self.args.seed), "--setup-probe"]
        for _ in range(SETUP_PROBES):
            done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
            probe = json.loads(done.stdout.strip().splitlines()[-1])
            samples.append((probe["setup_raw_s"] * NOMINAL_S / probe["ref_s"], probe["setup_raw_s"]))
        return samples

    # -- end-to-end ------------------------------------------------------------
    def end_to_end(self) -> tuple[dict, list[tuple]]:
        """(metrics, detail rows) for an untraced run."""
        workload = self.workload
        self.setups = setups = self.setup_samples()
        latency_metrics = workload.LATENCY
        latency = [v for m in latency_metrics for v in self.normalised(m)]
        latency_raw = [v for m in latency_metrics for v in self.raw(m)]
        task = self.normalised("task_ms")
        values = {
            "setup_s": (statistics.median(s for s, _ in setups), statistics.median(r for _, r in setups), len(setups)),
            "peak_rss_mb": (self.peak_rss_mb, self.peak_rss_mb, 1),
            "latency_ms.p50": (quantile(latency, 0.5), quantile(latency_raw, 0.5), len(latency)),
            "latency_ms.p90": (quantile(latency, 0.9), quantile(latency_raw, 0.9), len(latency)),
            "task_ms.p50": (quantile(task, 0.5), quantile(self.raw("task_ms"), 0.5), len(task)),
        }
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
        rows = [(name, unit, *values[name]) for name, unit in END_TO_END]
        for name, unit, value, raw, count in self.workload_detail():
            rows.append((name, unit, value, raw, count))
        return metrics, rows

    def workload_detail(self) -> list[tuple]:
        """The workload's own named metrics (printed, not gated)."""
        rows = []
        for label, metric, quantiles in self.workload.DETAIL:
            values, raws = self.normalised(metric), self.raw(metric)
            for q in quantiles:
                rows.append((f"{label}.p{int(q * 100)}", "ms", quantile(values, q), quantile(raws, q), len(values)))
        wl = self.workload
        gaps, raw_gaps = self.normalised("gap_gc_ms"), self.raw("gap_gc_ms")
        rows.append(("gap_gc_ms.p50", "ms", quantile(gaps, 0.5), quantile(raw_gaps, 0.5), len(gaps)))
        if wl.unit_wall:
            rates = [wl.unit_ops[u] / wl.unit_wall[u] / self.norm.factor(u) for u in wl.unit_wall]
            raw_rates = [wl.unit_ops[u] / wl.unit_wall[u] for u in wl.unit_wall]
            rows.append(("throughput_rps", "1/s", statistics.median(rates), statistics.median(raw_rates), len(rates)))
        rate = wl.failed / max(1, wl.attempted)
        rows.append(("error_rate", "fraction", rate, rate, wl.attempted))
        return rows

    # -- per-layer -----------------------------------------------------------
    def per_layer(self) -> dict:
        workload, tracer = self.workload, self.tracer
        traced, untraced = self.traced_units, self.untraced_units()
        traced_set = set(traced)
        ops = max(1, sum(1 for _, unit in workload.samples.get(workload.LAYER_OP, ()) if unit in traced_set))
        factor = statistics.median(self.norm.factor(u) for u in traced)
        summary = tracer.summary()
        values: dict[str, float] = {}
        for layer, with_calls in SPAN_LAYERS:
            self_s, calls = summary.get(layer, (0.0, 0))
            values[_layer_ms_name(layer)] = self_s * 1000.0 * factor / ops
            if with_calls:
                values[f"{layer}_calls"] = calls / ops
        counts = tracer.counts
        for name in ("append_bytes", "checkpoint_bytes", "checkpoints", "replayed_actions"):
            values[f"durability.{name}"] = counts.get(f"durability.{name}", 0.0) / ops
        appends = counts.get("durability.appends", 0.0)
        written = counts.get("durability.append_bytes", 0.0) + counts.get("durability.checkpoint_bytes", 0.0)
        values["durability.wal_bytes_per_action"] = written / appends if appends else 0.0
        tiers = workload.tier_stats

        def ratio(tier):
            stats = tiers.get(tier, {})
            looked = stats.get("hits", 0) + stats.get("misses", 0)
            return stats.get("hits", 0) / looked if looked else 0.0

        all_ops = max(1, len(workload.samples.get(workload.LAYER_OP, ())))
        values["cache.plan_hit_ratio"] = ratio("plan")
        values["cache.plan_evictions"] = tiers.get("plan", {}).get("evictions", 0) / all_ops
        values["cache.compile_hit_ratio"] = ratio("compile")
        values["cache.scan_hit_ratio"] = ratio("scan")
        values["cache.analysis_hit_ratio"] = ratio("analysis")
        waits = self.normalised("queue_wait_ms", untraced)
        executes = self.normalised("execute_ms", untraced)
        values["server.queue_wait_ms.p50"] = quantile(waits, 0.5) if waits else 0.0
        values["server.queue_wait_ms.p90"] = quantile(waits, 0.9) if waits else 0.0
        values["server.execute_ms.p50"] = quantile(executes, 0.5) if executes else 0.0
        server = workload.server_stats
        values["server.shed"] = server.get("shed", 0)
        values["server.expired"] = server.get("expired", 0)
        values["server.brownout_entered"] = server.get("brownout_entered", 0)
        with_trace = quantile(self.normalised("task_ms", traced), 0.5)
        without = quantile(self.normalised("task_ms", untraced), 0.5)
        values["trace.overhead_pct"] = (with_trace / without - 1.0) * 100.0
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names()}


def print_rows(title: str, rows: list[tuple]) -> None:
    print(f"== {title}")
    print(f"{'metric':34} {'value':>12} {'unit':8} {'raw':>12} {'n':>7}")
    for name, unit, value, raw, count in rows:
        print(f"{name:34} {value:12.4f} {unit:8} {raw:12.4f} {count:7d}")


def run_one(args) -> int:
    run = Run(args)
    if args.setup_probe:
        print(json.dumps({"setup_raw_s": run.setup_raw, "ref_s": run.setup_ref}))
        run.workload.close()
        return 0
    try:
        run.measure()
    finally:
        run.workload.close()
    workload = run.workload
    title = f"{workload.name} seed={args.seed} units={run.units} inputs={workload.inputs_digest()}"
    raw = {}
    if args.trace:
        metrics = run.per_layer()
        print_rows(title + " (per layer)", [(n, m["unit"], m["value"], m["value"], 1) for n, m in metrics.items()])
    else:
        metrics, rows = run.end_to_end()
        raw = {name: value for name, _unit, _value, value, _count in rows}
        print_rows(title, rows)
    server = workload.server_stats
    if server:
        print("overload guard: " + " ".join(f"{k}={v}" for k, v in server.items()))
    print(f"output checks: {workload.checks} run, {len(workload.failures)} failures shown")
    for failure in workload.failures:
        print(f"  FAILED {failure}")
    detail = {
        "samples": {m: len(v) for m, v in workload.samples.items()},
        "server": server,
        "inputs": workload.inputs_digest(),
        "raw": raw,
        "setups": run.setups,
        "ref_gaps_ms": [g * 1000 for g in run.norm.gaps],
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Run every workload, gated or not, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
