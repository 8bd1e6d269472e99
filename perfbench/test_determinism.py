"""Determinism of the benchmark's counts and inputs.

Run with ``python -m pytest perfbench/test_determinism.py -q``.

Two traced runs of the same seed and the same number of units must count
exactly the same per-layer calls and durability bytes on ``journey`` and
``durable`` (on ``tenants`` the interleaving of users decides which of
them fills a shared cache entry first, so its counts may differ). A
different seed must change the generated inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Per-layer metrics besides the ``*_calls`` ones that must repeat exactly.
EXACT = (
    "durability.append_bytes",
    "durability.checkpoint_bytes",
    "durability.checkpoints",
    "durability.replayed_actions",
    "durability.wal_bytes_per_action",
)
UNITS = 4


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--units", str(UNITS), "--trace", "1"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith("_calls") or name in EXACT
    }


@pytest.mark.parametrize("workload", ["journey", "durable"])
def test_same_seed_repeats_counts_exactly(workload):
    first = traced_counts(workload, seed=3)
    second = traced_counts(workload, seed=3)
    assert first == second
    assert first["engine.run_calls"] > 0
    if workload == "durable":
        assert first["durability.wal_bytes_per_action"] > 0
        assert first["durability.checkpoints"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_decides_the_inputs(workload):
    cls = WORKLOADS[workload]
    assert cls(5).inputs() == cls(5).inputs()
    assert cls(5).inputs() != cls(6).inputs()
