"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-ensemble --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` (the single
source of names and units).  A run

1. refuses to start (exit 2) unless the checkout holds ``src/repro``;
2. pins the environment (no disk memo, a benchmark-owned compiled-kernel
   cache) and, once per source tree, warms that cache and the bytecode
   caches in a throwaway interpreter;
3. measures ``setup_s`` as the median of several fresh launches: for the
   in-process workloads an interpreter that imports the library, builds
   the workload and loads its kernel; for the service a ``repro serve``
   daemon, until its ``endpoint.json`` names its pid;
4. runs the workload for ``--seconds`` in a fresh interpreter
   (``worker.py``), which also checks the outputs;
5. prints the run metadata (CPUs, affinity, versions, kernel backend, fuse
   path), every metric by name with its unit, the checks, and as the last
   line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
   reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Each run is also appended to ``.bench_build/perfbench/runs.jsonl`` with its
metadata, which ``compare.py`` uses to refuse comparing runs made with
different kernel backends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import procs

#: Every run must end within this many seconds.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5


def source_digest(src: Path) -> str:
    """Hash of the program's sources: a new tree needs a new warm-up."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_worker(args: List[str], env: dict, timeout: float) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh interpreter; its last stdout line is JSON."""
    command = [sys.executable, str(Path("perfbench") / "worker.py"), *args]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as worker:
        try:
            out, _ = worker.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise RuntimeError(f"worker {args} timed out after {timeout:.0f}s")
    if worker.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {worker.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def setup_sample(workload: str, env: dict, index: int) -> float:
    """Seconds from launching a fresh interpreter to ready-to-time."""
    if workload == "service-roundtrip":
        base = procs.STATE_DIR / "setup-probe"
        root = base / f"root-{index}"
        root.mkdir(parents=True)
        socket_path = base / f"s{index}.sock"
        started = time.perf_counter()
        daemon = subprocess.Popen(
            procs.serve_command(root, socket_path), env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            procs.wait_for_endpoint(daemon, root)
            elapsed = time.perf_counter() - started
            procs.wait_until_serving(daemon, socket_path)
        finally:
            code = procs.stop_daemon(daemon)
        if code != 0:
            raise RuntimeError(f"setup probe daemon exited with {code}")
        return elapsed
    command = [sys.executable, str(Path("perfbench") / "worker.py"),
               "--workload", workload, "--probe"]
    started = time.perf_counter()
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.communicate(timeout=60)
    if line.strip() != b"READY" or probe.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}, exit {probe.returncode}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample (for tests)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    checkout = procs.CHECKOUT
    if not (checkout / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to benchmark under {checkout / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {workloads}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.chdir(checkout)
    state = procs.STATE_DIR
    shutil.rmtree(state / "setup-probe", ignore_errors=True)
    for sub in ("kernels", "tmp"):
        (state / sub).mkdir(parents=True, exist_ok=True)
    env = procs.pinned_env()
    common = ["--workload", args.workload] + (["--smoke"] if args.smoke else [])

    warmed = state / "warmed-source"
    source = source_digest(checkout / "src")
    if not warmed.exists() or warmed.read_text() != source:
        run_worker(common + ["--warm"], env, timeout=600)
        warmed.write_text(source)
    samples = [] if args.trace else [
        setup_sample(args.workload, env, index)
        for index in range(1 if args.smoke else SETUP_SAMPLES)
    ]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    result = run_worker(
        common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)],
        env, timeout=max(remaining, 30.0),
    )
    meta = result["meta"]
    values = dict(result["metrics"])
    if samples:
        values["setup_s"] = statistics.median(samples)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    if samples:
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in samples))
    for label, ok in result["checks"]:
        print(f"check {'PASS' if ok else 'FAIL'}: {label}")
    units = {entry["name"]: entry["unit"] for entry in wanted}
    every_unit = {entry["name"]: entry["unit"]
                  for entry in spec["end_to_end"] + spec["per_layer"]}
    display = result["display"]
    for name in sorted(values):
        note = display.pop("_tail", "") if name == "job_latency_tail_ms" else ""
        print(f"{name} = {values[name]:.6g} {every_unit[name]} {note}".rstrip())
    for name, text in display.items():
        print(f"{name.lstrip('_')}: {text}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")

    missing = [name for name in units if name not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    with open(state / "runs.jsonl", "a", encoding="utf-8") as history:
        history.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "smoke": args.smoke, "meta": meta,
            "metrics": values, "failed": failed,
        }) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
