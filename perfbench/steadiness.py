"""Steadiness report: how much each end-to-end metric moves between runs.

Usage::

    python3 perfbench/steadiness.py --runs 10 --seconds 20 [--workload journey ...]

Runs ``perfbench/run.py`` once per seed (seeds 1..runs) on each workload,
one run at a time, and prints for every end-to-end metric its median and
its spread -- the distance between the first and third quartiles as a
share of the median (``statistics.quantiles(values, n=4)``) -- both at
reference speed and raw, next to the bound in ``BENCHMARK.json``. It also
prints the overload guard counters of every run, which must all be zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {done.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        raws: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, detail = run_once(workload, seed, seconds)
            guard = detail.get("server", {})
            print(f"{workload} seed={seed} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} guard={guard}", flush=True)
            if not result["correct"] or any(guard.get(k) for k in ("shed", "expired", "brownout_entered")):
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                raws.setdefault(name, []).append(detail["raw"][name])
        print(f"== {workload}: {args.runs} runs of {seconds:g}s")
        print(f"{'metric':18} {'median':>11} {'spread':>8} {'raw spread':>11} {'bound':>7}")
        for name, series in values.items():
            bound = bounds.get(name, float("nan"))
            line = (f"{name:18} {statistics.median(series):11.4f} {spread(series):8.3f} "
                    f"{spread(raws[name]):11.3f} {bound:7.3f}")
            if name != "setup_s" and spread(series) > bound:
                line += "  OVER BOUND"
                status = 1
            print(line, flush=True)
        print("values " + json.dumps({"workload": workload, "values": values}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
