"""The ``service-roundtrip`` workload: a closed loop against ``repro serve``.

Two client threads (one connection each at a time) drive one daemon with
one worker over a unix socket.  Each client runs *cycles* of three jobs
and waits for each result before sending the next request, so the loop
is closed; a *round* is one cycle by each client.  The jobs are:

cold
    A fresh seed, CAS counter, batched engine, small grid.  It writes the
    store, the ledger and the point memo.
dedupe
    A byte-identical resubmission.  It only reads.
overlap
    The cold grid extended by one n.  It warm-starts the shared points
    from the memo and computes only the new one.

A job is timed from the submit call to the returned result.  Status is
polled by the benchmark itself at ``POLL_S`` rather than through
``ServiceClient.wait``, whose 50 ms default would quantize the
millisecond dedupe round trips.
"""

from __future__ import annotations

import contextlib
import glob
import json
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import procs
import tracer as tracing
from inprocess import same_output
from repro.algorithms.registry import get_workload
from repro.core.sweep import latency_sweep
from repro.service.client import AdmissionRejected, ServiceClient, ServiceClientError

perf_counter = time.perf_counter

#: Status poll interval of the load loop.
POLL_S = 0.002
JOB_TIMEOUT_S = 60.0
TERMINAL = ("completed", "failed", "poisoned", "cancelled")
CLIENTS = 2


def _span(tracer: Optional[tracing.Tracer], name: str, key: Optional[str] = None):
    return tracer.span(name, key) if tracer is not None else contextlib.nullcontext()


def job_seed(seed: int, round_index: int, client: int) -> int:
    return seed * 100_000 + round_index * CLIENTS + client


class ServiceRoundtrip:
    name = "service-roundtrip"

    def __init__(self, smoke: bool) -> None:
        self.steps = 500 if smoke else 4000
        self.repeats = 2 if smoke else 4
        self.grid = [2, 4]
        self.overlap_grid = [2, 4, 8]

    def cold_spec(self, seed: int) -> Dict[str, Any]:
        return {"workload": "cas-counter", "n_values": self.grid,
                "steps": self.steps, "repeats": self.repeats, "seed": seed}

    def cycle_specs(self, seed: int) -> List[Tuple[str, Dict[str, Any]]]:
        cold = self.cold_spec(seed)
        return [("cold", cold), ("dedupe", dict(cold)),
                ("overlap", dict(cold, n_values=self.overlap_grid))]

    def expected(self, kind: str, status: Dict[str, Any],
                 result: Dict[str, Any]) -> Optional[str]:
        """Why a completed job's answer is wrong, or ``None``."""
        warm_new = {
            "cold": (False, 0, len(self.grid) * self.repeats),
            "dedupe": (True, 0, len(self.grid) * self.repeats),
            "overlap": (False, len(self.grid) * self.repeats, self.repeats),
        }[kind]
        got = (bool(status.get("dedupe")), result.get("warm_points"),
               result.get("recomputed"))
        return None if got == warm_new else f"{kind}: (dedupe, warm, new)={got}"


def run_job(client: ServiceClient, tracer, kind: str, spec: Dict[str, Any],
            workload: ServiceRoundtrip) -> Dict[str, Any]:
    record: Dict[str, Any] = {"kind": kind, "seed": spec["seed"], "error": None}
    started = perf_counter()
    try:
        with _span(tracer, "service.submit") as frame:
            status = client.submit(spec)
        job_id = status["job_id"]
        if frame is not None:
            frame["key"] = job_id
        submitted = status
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while status["state"] not in TERMINAL:
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {status['state']}")
            time.sleep(POLL_S)
            with _span(tracer, "service.poll", job_id):
                status = client.status(job_id)
        if status["state"] != "completed":
            raise RuntimeError(f"job {job_id} {status['state']}: {status['error']}")
        with _span(tracer, "service.result", job_id):
            result = client.result(job_id)
        record["latency_s"] = perf_counter() - started
        record["job_id"] = job_id
        record["result"] = result
        record["error"] = workload.expected(kind, submitted, result)
    except AdmissionRejected as error:
        record["error"] = f"refused (429): {error.payload}"
    except (ServiceClientError, OSError, RuntimeError, TimeoutError) as error:
        record["error"] = f"{type(error).__name__}: {error}"
    return record


def run_cycle(client, tracer, workload, seed) -> List[Dict[str, Any]]:
    with _span(tracer, "pass"):
        return [run_job(client, tracer, kind, spec, workload)
                for kind, spec in workload.cycle_specs(seed)]


class DaemonSession:
    """One daemon on a fresh root, driven round by round."""

    def __init__(self, workload: ServiceRoundtrip, tag: str,
                 traced: bool) -> None:
        self.workload = workload
        base = procs.STATE_DIR / f"svc-{tag}"
        self.root = base / "root"
        self.socket = base / "s.sock"
        self.spans_out = base / "daemon-spans.json" if traced else None
        self.tracer = tracing.Tracer(run_id=tag) if traced else None
        shutil.rmtree(base, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.shm_before = set(glob.glob("/dev/shm/repro-*"))
        self.daemon = procs.start_daemon(
            procs.serve_command(self.root, self.socket, self.spans_out)
        )
        try:
            procs.wait_for_endpoint(self.daemon, self.root)
        except RuntimeError:
            procs.stop_daemon(self.daemon)
            raise
        self.client = ServiceClient.from_root(self.root)
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS)
        self.records: List[Dict[str, Any]] = []
        self.rounds: List[Tuple[float, List[Dict[str, Any]]]] = []

    def run_round(self, seed: int, index: int, timed: bool = True) -> None:
        """One cycle per client; an untimed round only warms the daemon
        (its jobs still count as attempted and are still checked)."""
        tracer = self.tracer if timed else None
        started = perf_counter()
        futures = [
            self.pool.submit(run_cycle, self.client, tracer, self.workload,
                             job_seed(seed, index, client))
            for client in range(CLIENTS)
        ]
        records = [record for future in futures for record in future.result()]
        wall = perf_counter() - started
        self.records.extend(records)
        if timed:
            self.rounds.append((wall, records))

    def finish(self) -> Dict[str, Any]:
        """Read the daemon's counters and memory, stop it, check the debris."""
        self.pool.shutdown(wait=True)
        out: Dict[str, Any] = {"checks": []}
        try:
            out["metrics"] = self.client.metrics()
            out["peak_rss_mb"] = procs.peak_rss_mb(self.daemon.pid)
        finally:
            code = procs.stop_daemon(self.daemon)
        out["checks"].append((f"daemon exited with {code} after SIGTERM", code == 0))
        leftovers = [
            str(path) for path in
            [self.root / "endpoint.json", self.socket, *self.root.rglob("*.lock")]
            if path.exists()
        ] + sorted(set(glob.glob("/dev/shm/repro-*")) - self.shm_before)
        out["checks"].append((f"no debris after SIGTERM {leftovers}", not leftovers))
        out["ledger"] = [
            json.loads(line)
            for line in (self.root / "ledger.jsonl").read_text().splitlines()
            if line.strip()
        ]
        out["disk_bytes"] = sum(
            path.stat().st_size
            for sub in ("stores", "memo")
            for path in (self.root / sub).rglob("*") if path.is_file()
        )
        if self.tracer is not None:
            self.tracer.dump(str(self.spans_out.parent / "client-spans.json"))
            out["daemon_trace"] = json.loads(self.spans_out.read_text())
        return out


def ledger_phases(events: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Queue wait, lease and run times (ms) of every job that ran."""
    first: Dict[Tuple[str, str], float] = {}
    for event in events:
        if event.get("kind") == "event":
            first.setdefault((event["job"], event["event"]), event["t"])
    phases: Dict[str, List[float]] = {"queue_wait": [], "lease": [], "run": []}
    for (job, name), t in first.items():
        if name != "completed":
            continue
        try:
            submitted = first[(job, "submitted")]
            leased = first[(job, "leased")]
            running = first[(job, "running")]
        except KeyError:
            continue
        phases["queue_wait"].append((leased - submitted) * 1000)
        phases["lease"].append((running - leased) * 1000)
        phases["run"].append((t - running) * 1000)
    return phases


def sampled_cold_check(workload: ServiceRoundtrip, records, seed: int):
    """One cold job's points must equal a direct ``latency_sweep``."""
    colds = [r for r in records if r["kind"] == "cold" and r["error"] is None]
    if not colds:
        return ("a cold job completed", False)
    record = colds[seed % len(colds)]
    cas = get_workload("cas-counter")
    direct = latency_sweep(
        cas.factory_builder, cas.memory_builder, workload.grid,
        steps=workload.steps, repeats=workload.repeats, seed=record["seed"],
        engine="batched",
    )
    fields = ("system_latency", "completion_rate", "fairness_ratio")
    want = [
        {"n": point.n, **{
            name: {"mean": getattr(point, name).mean,
                   "half_width": getattr(point, name).half_width,
                   "confidence": getattr(point, name).confidence,
                   "n_samples": getattr(point, name).n_samples}
            for name in fields}}
        for point in direct
    ]
    return (f"cold job seed={record['seed']} equals direct latency_sweep",
            same_output(want, record["result"]["points"]))


def comparable(record: Dict[str, Any]) -> Any:
    result = record.get("result") or {}
    return (record["kind"], record["seed"], record["error"],
            result.get("points"), result.get("triples"))
