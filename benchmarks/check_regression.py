"""CI perf gate: compare a pytest-benchmark run against a checked-in baseline.

Usage::

    # gate (exit 1 on any >25% regression):
    python benchmarks/check_regression.py reports/benchmark.json baseline.json

    # refresh the baseline from a new run:
    python benchmarks/check_regression.py reports/benchmark.json baseline.json --update

The input is the ``--benchmark-json`` output of pytest-benchmark; the
baseline stores each benchmark's mean seconds plus a **calibration**
measurement (a fixed pure-python workload timed on the machine that wrote
the baseline). At check time the same workload is re-timed and every
comparison is scaled by the calibration ratio, so a CI runner that is
uniformly 2x slower than the baseline machine does not trip the gate —
only changes in the *relative* cost of a benchmark do.

Benchmarks present in the run but absent from the baseline are reported
and skipped (they gate from the next baseline refresh onward).

On gate runs the script additionally publishes the comparison for humans
and for history:

- a per-PR markdown speedup table is appended to ``$GITHUB_STEP_SUMMARY``
  when that variable is set (or to ``--step-summary PATH``), including the
  A/B speedups the benchmarks recorded under ``benchmarks/reports/*.json``
  (any report whose ``series`` carries a ``speedup`` figure);
- one JSON line per run is appended to ``benchmarks/reports/trend.jsonl``
  (override with ``--trend``, disable with ``--no-trend``) so CI can
  upload a cross-commit latency/speedup history artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPORT_DIR = Path(__file__).parent / "reports"


def calibrate(repeats: int = 5) -> float:
    """Seconds for a fixed CPU-bound workload; best-of-*repeats*.

    Mixes integer arithmetic, string formatting, and dict churn so it
    tracks interpreter speed the way the benchmarks do.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        table: dict[str, int] = {}
        for i in range(120_000):
            acc += i * i % 7
            if i % 97 == 0:
                table[f"k{i % 1000}"] = acc
        sorted(table.items())
        best = min(best, time.perf_counter() - start)
    return best


def load_run(path: Path) -> dict[str, float]:
    """``fullname -> mean seconds`` from a pytest-benchmark JSON file."""
    data = json.loads(path.read_text())
    means: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        means[name] = float(bench["stats"]["mean"])
    return means


def ab_speedups(report_dir: Path) -> dict[str, float]:
    """A/B speedup figures recorded by benchmark reports.

    Any ``<name>.json`` under *report_dir* whose ``series`` dict carries a
    numeric ``speedup`` entry contributes one row (the cache and columnar
    A/Bs both write this shape via ``common.write_report``).
    """
    speedups: dict[str, float] = {}
    for path in sorted(report_dir.glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"  note: skipping unreadable report {path.name}: {exc}")
            continue
        if not isinstance(data, dict):
            print(f"  note: skipping unreadable report {path.name}: not a JSON object")
            continue
        series = data.get("series")
        if isinstance(series, dict) and isinstance(series.get("speedup"), (int, float)):
            speedups[str(data.get("name", path.stem))] = float(series["speedup"])
    return speedups


def render_step_summary(
    comparisons: list[dict],
    speedups: dict[str, float],
    scale: float,
    threshold: float,
) -> str:
    """Markdown for ``$GITHUB_STEP_SUMMARY``: ratios vs baseline + A/Bs."""
    lines = [
        "## Benchmark comparison",
        "",
        f"Machine scale vs baseline: x{scale:.2f} · regression limit: x{threshold:.2f}",
        "",
        "| benchmark | mean | baseline (scaled) | ratio | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in comparisons:
        if row["baseline_s"] is None:
            lines.append(f"| `{row['name']}` | {row['mean_s'] * 1000:.2f} ms | — | — | new |")
            continue
        scaled = row["baseline_s"] * scale
        lines.append(
            f"| `{row['name']}` | {row['mean_s'] * 1000:.2f} ms "
            f"| {scaled * 1000:.2f} ms | x{row['ratio']:.2f} | {row['status']} |"
        )
    if speedups:
        lines += [
            "",
            "### A/B speedups this run",
            "",
            "| experiment | speedup |",
            "| --- | ---: |",
        ]
        lines.extend(
            f"| `{name}` | x{value:.1f} |" for name, value in sorted(speedups.items())
        )
    return "\n".join(lines) + "\n"


def append_trend(
    trend_path: Path,
    comparisons: list[dict],
    speedups: dict[str, float],
    calibration: float,
    scale: float,
) -> None:
    """Append one JSON line describing this run to the trend history."""
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": os.environ.get("GITHUB_SHA", ""),
        "ref": os.environ.get("GITHUB_REF_NAME", ""),
        "calibration_s": calibration,
        "machine_scale": scale,
        "benchmarks": {
            row["name"]: {
                "mean_s": row["mean_s"],
                "baseline_s": row["baseline_s"],
                "ratio": row["ratio"],
            }
            for row in comparisons
        },
        "speedups": speedups,
    }
    trend_path.parent.mkdir(exist_ok=True)
    with trend_path.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("run", type=Path, help="pytest-benchmark --benchmark-json output")
    parser.add_argument("baseline", type=Path, help="checked-in baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="fail when mean exceeds baseline by this factor (default 1.25 = +25%%)",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baseline from this run"
    )
    parser.add_argument(
        "--step-summary",
        type=Path,
        default=None,
        help="markdown summary destination (default: $GITHUB_STEP_SUMMARY when set)",
    )
    parser.add_argument(
        "--trend",
        type=Path,
        default=REPORT_DIR / "trend.jsonl",
        help="JSONL trend history to append to (default: benchmarks/reports/trend.jsonl)",
    )
    parser.add_argument(
        "--no-trend", action="store_true", help="skip appending to the trend history"
    )
    args = parser.parse_args(argv)

    for path in (args.run,) if args.update else (args.run, args.baseline):
        if not path.is_file():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
    means = load_run(args.run)
    if not means:
        print("no benchmarks found in", args.run, file=sys.stderr)
        return 2
    calibration = calibrate()

    if args.update:
        payload = {
            "calibration_s": calibration,
            "threshold_default": args.threshold,
            "benchmarks": {name: mean for name, mean in sorted(means.items())},
        }
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline updated: {len(means)} benchmarks, calibration {calibration:.4f}s")
        return 0

    baseline = json.loads(args.baseline.read_text())
    base_cal = float(baseline["calibration_s"])
    scale = calibration / base_cal
    print(
        f"calibration: baseline {base_cal:.4f}s, here {calibration:.4f}s "
        f"-> machine scale x{scale:.2f}"
    )

    failures: list[str] = []
    comparisons: list[dict] = []
    for name, mean in sorted(means.items()):
        base_mean = baseline["benchmarks"].get(name)
        if base_mean is None:
            print(f"  NEW      {name}: {mean * 1000:.2f}ms (no baseline; skipped)")
            comparisons.append(
                {"name": name, "mean_s": mean, "baseline_s": None,
                 "ratio": None, "status": "new"}
            )
            continue
        allowed = base_mean * scale * args.threshold
        ratio = mean / (base_mean * scale)
        status = "ok" if mean <= allowed else "REGRESSED"
        print(
            f"  {status:<10}{name}: {mean * 1000:.2f}ms vs baseline "
            f"{base_mean * 1000:.2f}ms (scaled ratio x{ratio:.2f}, limit x{args.threshold:.2f})"
        )
        comparisons.append(
            {"name": name, "mean_s": mean, "baseline_s": base_mean,
             "ratio": ratio, "status": status}
        )
        if mean > allowed:
            failures.append(name)
    for name in sorted(set(baseline["benchmarks"]) - set(means)):
        print(f"  MISSING  {name}: in baseline but not in this run")

    speedups = ab_speedups(args.run.parent if args.run.parent.is_dir() else REPORT_DIR)
    summary_path = args.step_summary
    if summary_path is None and os.environ.get("GITHUB_STEP_SUMMARY"):
        summary_path = Path(os.environ["GITHUB_STEP_SUMMARY"])
    if summary_path is not None:
        markdown = render_step_summary(comparisons, speedups, scale, args.threshold)
        with summary_path.open("a") as handle:
            handle.write(markdown)
        print(f"step summary appended to {summary_path}")
    if not args.no_trend:
        append_trend(args.trend, comparisons, speedups, calibration, scale)
        print(f"trend entry appended to {args.trend}")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond x{args.threshold:.2f}")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
