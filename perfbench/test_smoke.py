"""Smoke run of every benchmark workload at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced; every metric named in
``BENCHMARK.json`` must be emitted with its unit and every check must pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

#: Layers a workload must leave idle, and layers it must exercise.
IDLE_LAYERS = {
    "fig5-ensemble": ("progress.report.calls", "executor.run.calls",
                      "executor.run_batched.calls", "service.polls"),
    "zoo-departure": ("kernels.resolve.calls", "ensemble.run.calls",
                      "sweep.latency_sweep.calls", "service.polls"),
    "service-roundtrip": ("kernels.resolve.calls", "ensemble.run.calls",
                          "progress.report.calls", "chains.exact.calls"),
}
BUSY_LAYERS = {
    "fig5-ensemble": ("kernels.resolve.calls", "ensemble.run.calls",
                      "chains.exact.calls", "scheduler.select_batch.calls"),
    "zoo-departure": ("executor.run.calls", "executor.run_batched.calls",
                      "progress.report.calls", "scheduler.observe_pending.calls"),
    "service-roundtrip": ("service.polls", "executor.run_batched.calls",
                          "service.dedupe_hits", "service.memo_warm_points"),
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_every_check_passes(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert "check FAIL" not in out.stdout and "check PASS" in out.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace:
        assert "check PASS: traced" in out.stdout
        for name in IDLE_LAYERS[workload]:
            assert values[name] == 0, name
        for name in BUSY_LAYERS[workload]:
            assert values[name] > 0, name
    else:
        for name, value in values.items():
            assert value > 0, name


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
