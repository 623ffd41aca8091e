"""The two in-process workloads: ``fig5-ensemble`` and ``zoo-departure``.

Each workload is a list of *jobs* (requests a researcher issues and waits
for) grouped into *passes*.  Pass ``i`` of a run with seed ``s`` takes
its inputs from ``s * 1000 + i``, so one seed always gives the same
inputs.  A pass returns its outputs (compared bit for bit between traced
and untraced passes and checked against ground truth), the per-job wall
times and the number of simulated steps it performed.

fig5-ensemble
    One job per pass: the CAS-counter Figure 5 sweep on the ensemble
    engine over n in {2,4,8,16,32} with many short replicates per point,
    plus the exact system latency column solved cold (in-process caches
    cleared, no disk memo).  Draw, resolution, reconstruction,
    aggregation and the exact-chain solvers do the work; the generator
    executor, the store and the service do none.
zoo-departure
    Six jobs per pass: five departure curves (``measure_departure_point``
    at n=8 under uniform, epsilon(0.1) and contention(4) scheduling, one
    curve per structure) and one Theorem 3 analysis (a history-recording
    serial run of the CAS counter under a skewed stochastic scheduler,
    then ``progress_report``).  Step counts differ per family so that the
    batched uniform/epsilon rows, the block-size-1 contention rows and the
    Theorem 3 analysis each take a similar share of the pass.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np
import scipy.stats

import repro.chains.scu as chains_scu
import repro.core.progress as progress
import repro.core.sweep as sweep
import repro.core.uniformity as uniformity
from repro.algorithms.counter import cas_counter, make_counter_memory
from repro.algorithms.registry import get_workload
from repro.core.scheduler import (
    ContentionScheduler,
    EpsilonUniformScheduler,
    SkewedStochasticScheduler,
    UniformStochasticScheduler,
)
from repro.sim.executor import Simulator
from repro.sim.kernels import get_kernel

perf_counter = time.perf_counter

#: Standard errors a sweep point may sit from the exact value.  A 95%
#: interval is too tight for a per-run check (it misses on some seeds).
EXACT_TOLERANCE_SE = 4.0


def pass_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


class Fig5Ensemble:
    name = "fig5-ensemble"

    def __init__(self, smoke: bool) -> None:
        self.grid = (2, 4) if smoke else (2, 4, 8, 16, 32)
        self.steps = 1000 if smoke else 5000
        self.repeats = 16 if smoke else 128

    def prepare(self) -> None:
        """Load the compiled kernel the sweep resolves with."""
        get_kernel("auto")

    def run_pass(self, seed: int) -> Tuple[Any, List[float], int]:
        chains_scu.clear_exact_chain_caches()
        started = perf_counter()
        points = sweep.latency_sweep(
            cas_counter,
            make_counter_memory,
            self.grid,
            steps=self.steps,
            repeats=self.repeats,
            engine="ensemble",
            seed=seed,
        )
        exact = [chains_scu.scu_system_latency_exact(n) for n in self.grid]
        elapsed = perf_counter() - started
        steps = len(self.grid) * self.repeats * self.steps
        return (points, exact), [elapsed], steps

    def check(self, seed: int, output: Any) -> List[Tuple[str, bool]]:
        """Ground truth for pass 0: the exact chain, and the batched engine."""
        points, exact = output
        checks = []
        t_crit = scipy.stats.t.ppf(0.975, self.repeats - 1)
        for point, value in zip(points, exact):
            estimate = point.system_latency
            stderr = estimate.half_width / t_crit
            checks.append((
                f"n={point.n} latency {estimate.mean:.4f} within "
                f"{EXACT_TOLERANCE_SE:g} SE of exact {value:.4f}",
                abs(estimate.mean - value) <= EXACT_TOLERANCE_SE * stderr,
            ))
        n = self.grid[seed % len(self.grid)]
        batched = sweep.latency_sweep(
            cas_counter,
            make_counter_memory,
            [n],
            steps=self.steps,
            repeats=self.repeats,
            engine="batched",
            seed=seed,
        )[0]
        ensemble = next(point for point in points if point.n == n)
        checks.append((
            f"n={n} ensemble point equals Simulator.run_batched replicates",
            same_output(batched, ensemble),
        ))
        return checks


def _thm3_scheduler() -> SkewedStochasticScheduler:
    return SkewedStochasticScheduler([1.0] * 7 + [0.02])


class ZooDeparture:
    name = "zoo-departure"
    structures = ("cas-counter", "msqueue", "treiber", "harris-set", "rtas-lock")
    n_processes = 8

    def __init__(self, smoke: bool) -> None:
        self.batch_steps = 2000 if smoke else 32000
        self.contention_steps = 200 if smoke else 2000
        self.thm3_steps = 1000 if smoke else 16000
        self.rows = [
            (structure, label, builder, steps)
            for structure in self.structures
            for label, builder, steps in (
                ("uniform", UniformStochasticScheduler, self.batch_steps),
                ("epsilon(0.1)", lambda: EpsilonUniformScheduler(0.1),
                 self.batch_steps),
                ("contention(4)", lambda: ContentionScheduler(focus=4.0),
                 self.contention_steps),
            )
        ]

    def prepare(self) -> None:
        """Resolve the structures from the workload registry."""
        for structure in self.structures:
            get_workload(structure)

    def _row(self, structure, label, builder, steps, seed, batched=True):
        return uniformity.measure_departure_point(
            get_workload(structure),
            builder,
            label=label,
            n_processes=self.n_processes,
            steps=steps,
            seed=seed,
            batched=batched,
        )

    def run_pass(self, seed: int) -> Tuple[Any, List[float], int]:
        rows, jobs = [], []
        for first in range(0, len(self.rows), 3):
            started = perf_counter()
            for structure, label, builder, steps in self.rows[first:first + 3]:
                rows.append(self._row(structure, label, builder, steps, seed))
            jobs.append(perf_counter() - started)
        started = perf_counter()
        simulator = Simulator(
            cas_counter(),
            _thm3_scheduler(),
            n_processes=self.n_processes,
            memory=make_counter_memory(),
            record_history=True,
            rng=seed,
        )
        result = simulator.run(self.thm3_steps)
        report = progress.progress_report(
            result.history,
            result.steps_executed,
            starvation_window=self.thm3_steps // 2,
        )
        jobs.append(perf_counter() - started)
        steps = sum(row[3] for row in self.rows) + self.thm3_steps
        return (rows, report), jobs, steps

    def check(self, seed: int, output: Any) -> List[Tuple[str, bool]]:
        rows, report = output
        by_key = {
            (structure, label): row
            for (structure, label, _, _), row in zip(self.rows, rows)
        }

        def numbers(point) -> Dict[str, Any]:
            values = point.as_dict()
            values.pop("scheduler")
            return values

        contention = by_key[("cas-counter", "contention(4)")]
        epsilon0 = self._row(
            "cas-counter", "epsilon(0)", lambda: EpsilonUniformScheduler(0.0),
            self.contention_steps, seed,
        )
        serial = self._row(
            "msqueue", "contention(4)", lambda: ContentionScheduler(focus=4.0),
            self.contention_steps, seed, batched=False,
        )
        return [
            ("cas-counter contention(4) equals epsilon(0)",
             same_output(numbers(contention), numbers(epsilon0))),
            ("msqueue contention(4) serial equals batched",
             same_output(serial, by_key[("msqueue", "contention(4)")])),
            ("every departure row completed operations",
             all(row.completions > 0 for row in rows)),
            ("Theorem 3 run made minimal progress", report.made_minimal_progress),
        ]


def same_output(left: Any, right: Any) -> bool:
    """Bit-for-bit equality of two pass outputs (NaN-safe for floats)."""
    return _canonical(left) == _canonical(right)


def _canonical(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if hasattr(value, "__dataclass_fields__"):
        return _canonical(
            {name: getattr(value, name) for name in value.__dataclass_fields__}
        )
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


WORKLOADS = {cls.name: cls for cls in (Fig5Ensemble, ZooDeparture)}
