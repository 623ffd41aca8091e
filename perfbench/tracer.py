"""Spans and tallies recorded around calls into the library's layers.

The benchmark traces from its own files: :func:`install` replaces the
bindings that callers actually use (module attributes and class
attributes) with thin wrappers, and :func:`uninstall` puts the originals
back.  Nothing inside ``src/`` is modified.

Two kinds of record are kept in memory:

* a **span** per coarse call (a sweep, an ensemble run, one departure
  point, one HTTP round trip): name, start, end, parent span, run id and
  an optional key (the job id for service calls);
* a **tally** per hot call (scheduler draws, which on the contention path
  happen once per simulated step, and the kernels' inner loops, which
  happen once per replicate): call count, busy seconds and items.  The
  time of the outermost tally call is charged to the enclosing span, so
  self times stay exact without a span per step.

A span's self time is its duration minus its child spans' durations and
the tally time charged to it.  Wrappers never touch an RNG or a result,
so traced runs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter


class Tracer:
    """In-memory span and tally store; thread-safe for appends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.tallies: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._tally_lock = threading.Lock()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.tally_depth = 0
        return stack

    def open(self, name: str, key: Optional[str] = None) -> Dict[str, Any]:
        stack = self._stack()
        frame = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "run": self.run_id,
            "key": key,
            "start": perf_counter(),
            "end": None,
            "child_s": 0.0,
            "items": 0,
        }
        stack.append(frame)
        return frame

    def close(self, frame: Dict[str, Any]) -> None:
        frame["end"] = perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += frame["end"] - frame["start"]
        self.spans.append(frame)

    def span(self, name: str, key: Optional[str] = None) -> "_SpanContext":
        return _SpanContext(self, name, key)

    def tally(self, name: str, seconds: float, items: int) -> None:
        with self._tally_lock:
            entry = self.tallies.setdefault(name, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += items

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "tallies": self.tallies}, handle)


class _SpanContext:
    __slots__ = ("tracer", "name", "key", "frame")

    def __init__(self, tracer: Tracer, name: str, key: Optional[str]) -> None:
        self.tracer, self.name, self.key = tracer, name, key

    def __enter__(self) -> Dict[str, Any]:
        self.frame = self.tracer.open(self.name, self.key)
        return self.frame

    def __exit__(self, *exc_info) -> None:
        self.tracer.close(self.frame)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable,
                  items: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if items is not None:
                frame["items"] = int(items(args, result))
            return result
        finally:
            tracer.close(frame)

    return wrapper


def _tally_wrapper(tracer: Tracer, name: str, fn: Callable,
                   items: Callable) -> Callable:
    local = tracer._local

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer._stack()
        outermost = local.tally_depth == 0
        local.tally_depth += 1
        started = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            local.tally_depth -= 1
            elapsed = perf_counter() - started
            if outermost and stack:
                stack[-1]["child_s"] += elapsed
        # A nested call (a default ``select_batch`` looping over ``select``)
        # counts as a call but not again as items.
        tracer.tally(name, elapsed, items(args, result) if outermost else 0)
        return result

    return wrapper


class _Patch:
    """Replace ``owner.attr`` and remember how to put it back."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
            # Memoized solvers stay clearable through the wrapper, which is
            # how ``clear_exact_chain_caches`` reaches them.
            for extra in ("cache_clear", "cache_info", "memo_name"):
                if hasattr(raw, extra):
                    setattr(replacement, extra, getattr(raw, extra))
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _subclasses(cls: type) -> List[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(s for s in _subclasses(sub) if s not in seen)
    return seen


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced binding; returns the function that unwraps them."""
    import repro.chains.scu as chains_scu
    import repro.core.progress as progress
    import repro.core.sweep as sweep
    import repro.core.uniformity as uniformity
    import repro.sim.ensemble as ensemble
    import repro.sim.kernels as kernels
    from repro.core.scheduler import Scheduler
    from repro.sim.executor import Simulator

    patch = _Patch()

    def span(name: str, items: Optional[Callable] = None):
        return lambda fn: _span_wrapper(tracer, name, fn, items)

    def tally(name: str, items: Callable):
        return lambda fn: _tally_wrapper(tracer, name, fn, items)

    # Scheduler methods are wrapped where each class defines them, so
    # ``getattr(scheduler, "observe_pending", None)`` still finds the hook
    # on exactly the classes that have one.
    counts = {
        "select": lambda args, result: 1,
        "select_batch": lambda args, result: len(result),
        "observe_pending": lambda args, result: 0,
    }
    for cls in _subclasses(Scheduler):
        for method, items in counts.items():
            raw = cls.__dict__.get(method)
            if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                patch.replace(cls, method, tally(f"scheduler.{method}", items))

    # The ensemble engine calls the resolvers through its own module
    # globals, so those are the bindings to wrap.
    steps = lambda args, result: args[0].shape[0]  # noqa: E731
    for resolver in ("resolve_flat", "resolve_heap",
                     "resolve_flat_stacked", "resolve_heap_stacked"):
        patch.replace(ensemble, resolver, span("kernels.resolve", steps))
    for cls in (kernels.NumpyKernel, kernels._CompiledKernelBase,
                kernels.NumbaParallelKernel):
        for method in ("chain_walk", "heap_scan",
                       "chain_walk_stacked", "heap_scan_stacked"):
            if method in cls.__dict__:
                patch.replace(cls, method, tally("kernels.inner", lambda a, r: 0))

    patch.replace(ensemble.EnsembleSimulator, "run",
                  span("ensemble.run", lambda args, result: len(result)))
    patch.replace(ensemble.EnsembleResult, "measurements",
                  span("ensemble.measurements"))
    executed = lambda args, result: result.steps_this_run  # noqa: E731
    patch.replace(Simulator, "run", span("executor.run", executed))
    patch.replace(Simulator, "run_batched", span("executor.run_batched", executed))
    patch.replace(sweep, "latency_sweep", span("sweep.latency_sweep"))
    patch.replace(uniformity, "measure_departure_point",
                  span("uniformity.departure_point"))
    patch.replace(progress, "progress_report",
                  span("progress.report", lambda args, result: len(args[0])))
    patch.replace(chains_scu, "scu_system_latency_exact", span("chains.exact"))
    return patch.undo


# -- deriving per-layer metrics ---------------------------------------------------


def self_seconds(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus its children's and its charged tallies."""
    return [max(s["end"] - s["start"] - s["child_s"], 0.0) for s in spans]


def span_totals(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """``{name: {calls, s, self_s, items}}`` summed over spans."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_seconds(spans)):
        entry = totals.setdefault(
            span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0}
        )
        entry["calls"] += 1
        entry["s"] += span["end"] - span["start"]
        entry["self_s"] += own
        entry["items"] += span["items"]
    return totals


#: Span-derived per-layer metrics: (metric, span or tally name, field, unit).
SPAN_METRICS = [
    ("scheduler.select_batch.calls", "scheduler.select_batch", "calls", "count"),
    ("scheduler.select_batch.s", "scheduler.select_batch", "s", "s"),
    ("scheduler.select.calls", "scheduler.select", "calls", "count"),
    ("scheduler.select.s", "scheduler.select", "s", "s"),
    ("scheduler.observe_pending.calls", "scheduler.observe_pending", "calls", "count"),
    ("scheduler.observe_pending.s", "scheduler.observe_pending", "s", "s"),
    ("kernels.resolve.calls", "kernels.resolve", "calls", "count"),
    ("kernels.resolve.s", "kernels.resolve", "s", "s"),
    ("kernels.resolve.self_s", "kernels.resolve", "self_s", "s"),
    ("kernels.resolve.steps", "kernels.resolve", "items", "count"),
    ("kernels.inner.calls", "kernels.inner", "calls", "count"),
    ("kernels.inner.s", "kernels.inner", "s", "s"),
    ("ensemble.run.calls", "ensemble.run", "calls", "count"),
    ("ensemble.run.s", "ensemble.run", "s", "s"),
    ("ensemble.run.self_s", "ensemble.run", "self_s", "s"),
    ("ensemble.measurements.s", "ensemble.measurements", "s", "s"),
    ("ensemble.replicates", "ensemble.run", "items", "count"),
    ("executor.run.calls", "executor.run", "calls", "count"),
    ("executor.run.s", "executor.run", "s", "s"),
    ("executor.run.self_s", "executor.run", "self_s", "s"),
    ("executor.run_batched.calls", "executor.run_batched", "calls", "count"),
    ("executor.run_batched.s", "executor.run_batched", "s", "s"),
    ("executor.run_batched.self_s", "executor.run_batched", "self_s", "s"),
    ("sweep.latency_sweep.calls", "sweep.latency_sweep", "calls", "count"),
    ("sweep.latency_sweep.s", "sweep.latency_sweep", "s", "s"),
    ("sweep.latency_sweep.self_s", "sweep.latency_sweep", "self_s", "s"),
    ("uniformity.departure_point.calls", "uniformity.departure_point", "calls", "count"),
    ("uniformity.departure_point.s", "uniformity.departure_point", "s", "s"),
    ("uniformity.departure_point.self_s", "uniformity.departure_point", "self_s", "s"),
    ("progress.report.calls", "progress.report", "calls", "count"),
    ("progress.report.s", "progress.report", "s", "s"),
    ("progress.events", "progress.report", "items", "count"),
    ("chains.exact.calls", "chains.exact", "calls", "count"),
    ("chains.exact.s", "chains.exact", "s", "s"),
    ("service.submit.s", "service.submit", "s", "s"),
    ("service.result.s", "service.result", "s", "s"),
    ("service.polls", "service.poll", "calls", "count"),
]


def layer_metrics(spans: List[Dict[str, Any]], tallies: Dict[str, List[float]],
                  passes: int) -> Dict[str, float]:
    """Per-pass means of every span- and tally-derived metric, plus
    ``executor.steps`` and the root spans' unattributed share."""
    totals = span_totals(spans)
    for name, (calls, seconds, items) in tallies.items():
        totals[name] = {"calls": calls, "s": seconds, "self_s": seconds,
                        "items": items}
    out: Dict[str, float] = {}
    for metric, name, field, _unit in SPAN_METRICS:
        out[metric] = totals.get(name, {}).get(field, 0) / passes
    out["scheduler.pids_drawn"] = (
        sum(totals.get(f"scheduler.{m}", {}).get("items", 0)
            for m in ("select", "select_batch")) / passes
    )
    out["executor.steps"] = (
        sum(totals.get(f"executor.{m}", {}).get("items", 0)
            for m in ("run", "run_batched")) / passes
    )
    roots = [(s, own) for s, own in zip(spans, self_seconds(spans))
             if s["parent"] is None and s["name"] == "pass"]
    wall = sum(s["end"] - s["start"] for s, _ in roots)
    out["trace.unattributed_frac"] = (
        sum(own for _, own in roots) / wall if wall > 0 else 0.0
    )
    return out
