"""Runs one workload in a fresh interpreter and prints its result as JSON.

Started by ``run.py`` (never by hand) with the environment of
:func:`procs.pinned_env`.  Modes:

``--warm``
    Import everything, so the bytecode caches are written, and build the
    compiled kernel into the benchmark's cache.
``--probe``
    Import, build the workload and load its kernel, then print ``READY``
    and exit: one set-up sample.
default
    Measure for ``--seconds``, run the correctness checks outside the
    timed body and print ``{"metrics", "attempted", "failed", "checks",
    "display"}``.  With ``--trace 1`` each pass runs untraced and then
    traced on the same inputs; the outputs must be identical, and the
    per-layer metrics come from the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Tuple

perf_counter = time.perf_counter


def tail(values: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)``.  Below eleven samples it falls back
    to the median."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return statistics.median(ordered), 50.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def latency_metrics(latencies_s: List[float]) -> Dict[str, Any]:
    value, percentile, count = tail(latencies_s)
    return {
        "job_latency_p50_ms": statistics.median(latencies_s) * 1000,
        "job_latency_tail_ms": value * 1000,
        "_tail": f"at p{percentile:.1f} of {count} jobs",
    }


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_meta() -> Dict[str, Any]:
    import numpy

    from repro.sim.kernels import get_kernel, kernel_diagnostics

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_diagnostics": kernel_diagnostics(),
        "kernel_backend": get_kernel("auto").name,
    }


def fuse_path(steps: int) -> str:
    """Which ensemble path the sweep's size takes, read from the engine's
    own counters on a two-replicate sweep of the same step count."""
    from repro.algorithms.counter import cas_counter, make_counter_memory
    from repro.core.sweep import latency_sweep
    from repro.core.telemetry import MetricsRegistry

    registry = MetricsRegistry()
    latency_sweep(cas_counter, make_counter_memory, [2], steps=steps, repeats=2,
                  engine="ensemble", telemetry=registry)
    fused = registry.report()["counters"].get("ensemble.fused_blocks", 0)
    return "fused" if fused else "per-replicate"


# -- in-process workloads ---------------------------------------------------------

#: Per-layer metrics only the service workload produces.
SERVICE_ONLY = (
    "service.queue_wait_ms.p50", "service.lease_ms.p50", "service.run_ms.p50",
    "service.dedupe_hits", "service.memo_warm_points",
    "service.recomputed_points", "service.ledger_events", "store.bytes",
    "service.cold_job_p50_ms", "service.dedupe_job_p50_ms",
    "service.overlap_job_p50_ms",
)


def measure_inprocess(workload, seed: int, seconds: float, trace: bool):
    import tracer as tracing
    from inprocess import pass_seed, same_output
    from repro.core.memo import memo_counters

    walls, traced_walls, latencies, step_rates, job_rates = [], [], [], [], []
    tracer = tracing.Tracer(run_id=f"{workload.name}-{seed}")
    memo = {"computes": 0, "disk_hits": 0}
    identical = True
    # Pass 0 warms the interpreter and the library's lazy set-up; it is
    # checked but not timed.
    first, _, _ = workload.run_pass(pass_seed(seed, 0))
    started = perf_counter()
    index = 1
    while index == 1 or perf_counter() - started < seconds:
        inputs = pass_seed(seed, index)
        began = perf_counter()
        output, jobs, pass_steps = workload.run_pass(inputs)
        wall = perf_counter() - began
        walls.append(wall)
        latencies.extend(jobs)
        step_rates.append(pass_steps / wall)
        job_rates.append(len(jobs) / wall)
        if trace:
            before = memo_counters()
            undo = tracing.install(tracer)
            try:
                with tracer.span("pass"):
                    began = perf_counter()
                    traced, _, _ = workload.run_pass(inputs)
                    traced_walls.append(perf_counter() - began)
            finally:
                undo()
            after = memo_counters()
            for key in memo:
                memo[key] += after.get(key, 0) - before.get(key, 0)
            identical = identical and same_output(output, traced)
        index += 1

    peak_rss = own_peak_rss_mb()
    checks = workload.check(pass_seed(seed, 0), first)
    if not trace:
        metrics = {
            "wall_s": statistics.median(walls),
            "sim_steps_per_s": statistics.median(step_rates),
            "peak_rss_mb": peak_rss,
            "jobs_per_s": statistics.median(job_rates),
            **latency_metrics(latencies),
        }
        return metrics, len(latencies), 0, checks
    checks.append(("traced outputs are bit-identical to untraced", identical))
    passes = len(traced_walls)
    metrics = tracing.layer_metrics(tracer.spans, tracer.tallies, passes)
    metrics["memo.computes"] = memo["computes"] / passes
    metrics["memo.disk_hits"] = memo["disk_hits"] / passes
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1.0
    )
    for name in SERVICE_ONLY:
        metrics[name] = 0.0
    tracer.dump(f".bench_build/perfbench/trace-{workload.name}.json")
    return metrics, 2 * passes, 0, checks


# -- service workload -----------------------------------------------------------------


def _job_counts(records) -> Tuple[int, int]:
    return len(records), sum(1 for record in records if record["error"])


def _kind_p50s(records) -> Dict[str, float]:
    out = {}
    for kind in ("cold", "dedupe", "overlap"):
        values = [r["latency_s"] for r in records
                  if r["kind"] == kind and r["error"] is None]
        out[f"service.{kind}_job_p50_ms"] = (
            statistics.median(values) * 1000 if values else 0.0
        )
    return out


def measure_service(workload, seed: int, seconds: float, trace: bool):
    import service_roundtrip as svc
    import tracer as tracing

    def drive(tag: str, traced: bool, budget_s: float, rounds=None):
        session = svc.DaemonSession(workload, tag, traced)
        try:
            session.run_round(seed, 0, timed=False)
            started = perf_counter()
            index = 1
            while (index <= rounds if rounds is not None
                   else index == 1 or perf_counter() - started < budget_s):
                session.run_round(seed, index)
                index += 1
        finally:
            finished = session.finish()
        return session, finished

    if not trace:
        session, finished = drive("main", False, seconds)
        records = session.records
        timed = [r for _, jobs in session.rounds for r in jobs
                 if r["error"] is None]
        metrics = {
            "wall_s": statistics.median(wall for wall, _ in session.rounds),
            "sim_steps_per_s": statistics.median(
                sum(r["result"]["recomputed"] for r in jobs if r["error"] is None)
                * workload.steps / wall
                for wall, jobs in session.rounds
            ),
            "peak_rss_mb": finished["peak_rss_mb"],
            "jobs_per_s": statistics.median(
                sum(1 for r in jobs if r["error"] is None) / wall
                for wall, jobs in session.rounds
            ),
            **latency_metrics([r["latency_s"] for r in timed]),
            **_kind_p50s(timed),
        }
        checks = finished["checks"] + [
            svc.sampled_cold_check(workload, records, seed)
        ]
        errors = sorted({r["error"] for r in records if r["error"]})
        if errors:
            metrics["_job_errors"] = "; ".join(errors[:5])
        attempted, failed = _job_counts(records)
        return metrics, attempted, failed, checks

    plain, plain_done = drive("untraced", False, seconds / 2)
    session, finished = drive("traced", True, 0.0, rounds=len(plain.rounds))
    records = plain.records + session.records
    identical = sorted(map(svc.comparable, plain.records), key=str) == sorted(
        map(svc.comparable, session.records), key=str
    )
    # Client spans cover the timed cycles; the daemon's spans, counters and
    # disk also include the untimed warm-up round.
    cycles = len(session.rounds) * svc.CLIENTS
    daemon_cycles = len(session.records) // len(workload.cycle_specs(0))
    client = tracing.layer_metrics(session.tracer.spans, {}, cycles)
    daemon = finished["daemon_trace"]
    metrics = tracing.layer_metrics(daemon["spans"], daemon["tallies"],
                                    daemon_cycles)
    for name, value in client.items():
        metrics[name] += value
    metrics["trace.unattributed_frac"] = client["trace.unattributed_frac"]
    cycles = daemon_cycles
    counters = finished["metrics"].get("counters", {})
    for name in ("service.dedupe_hits", "service.memo_warm_points",
                 "service.recomputed_points", "memo.computes", "memo.disk_hits"):
        metrics[name] = counters.get(name, 0) / cycles
    metrics["service.ledger_events"] = sum(
        value for name, value in counters.items()
        if name.startswith("service.ledger_")
    ) / cycles
    for phase, values in svc.ledger_phases(finished["ledger"]).items():
        metrics[f"service.{phase}_ms.p50"] = (
            statistics.median(values) if values else 0.0
        )
    metrics["store.bytes"] = finished["disk_bytes"] / cycles
    metrics.update(_kind_p50s([r for _, jobs in plain.rounds for r in jobs
                               if r["error"] is None]))
    metrics["trace.overhead_frac"] = (
        statistics.median(wall for wall, _ in session.rounds)
        / statistics.median(wall for wall, _ in plain.rounds) - 1.0
    )
    checks = plain_done["checks"] + finished["checks"] + [
        ("traced job results are bit-identical to untraced", identical),
        svc.sampled_cold_check(workload, plain.records, seed),
    ]
    attempted, failed = _job_counts(records)
    return metrics, attempted, failed, checks


# -- entry point ------------------------------------------------------------------------


def build(name: str, smoke: bool):
    if name == "service-roundtrip":
        from service_roundtrip import ServiceRoundtrip

        return ServiceRoundtrip(smoke)
    from inprocess import WORKLOADS

    return WORKLOADS[name](smoke)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)

    workload = build(args.workload, args.smoke)
    if args.probe:
        workload.prepare()
        print("READY", flush=True)
        return 0
    if args.warm:
        import repro.cli  # noqa: F401  (writes the bytecode the probes load)
        import service_roundtrip  # noqa: F401

        print(json.dumps(run_meta()), flush=True)
        return 0

    measure = (measure_service if args.workload == "service-roundtrip"
               else measure_inprocess)
    metrics, attempted, failed, checks = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    display = {name: value for name, value in metrics.items()
               if name.startswith("_")}
    meta = run_meta()
    if args.workload == "fig5-ensemble":
        meta["fuse_path"] = fuse_path(workload.steps)
    print(json.dumps({
        "meta": meta,
        "metrics": {k: v for k, v in metrics.items() if not k.startswith("_")},
        "display": display,
        "attempted": attempted + len(checks),
        "failed": failed + sum(1 for _, ok in checks if not ok),
        "checks": [[label, bool(ok)] for label, ok in checks],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
