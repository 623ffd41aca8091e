"""Compare two sets of benchmark runs, e.g. a parent commit and a change.

Usage::

    python3 perfbench/compare.py PARENT/runs.jsonl CHANGE/runs.jsonl

Each file is the ``.bench_build/perfbench/runs.jsonl`` that ``run.py``
appends to.  For every workload present on both sides it prints each
end-to-end metric's median, quartile spread and change against the
parent, and flags a change worse than the metric's bound in
``BENCHMARK.json``.  A workload whose runs used different kernel backends
(or fuse paths) on the two sides is reported as INVALID instead: the
numbers measure different code paths, not a regression.  Exits 1 when any
metric regressed or any comparison was invalid.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List


def load(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if run["trace"] == 0 and not run["smoke"]:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def paths(runs: List[dict]) -> set:
    return {(run["meta"]["kernel_backend"], run["meta"].get("fuse_path"))
            for run in runs}


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    parent, change = load(argv[0]), load(argv[1])
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    bad = False
    for workload in sorted(set(parent) & set(change)):
        before, after = parent[workload], change[workload]
        if paths(before) != paths(after):
            print(f"{workload}: INVALID comparison: kernel backend/fuse path "
                  f"{sorted(paths(before))} vs {sorted(paths(after))}")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = [run["metrics"][name] for run in before]
            new = [run["metrics"][name] for run in after]
            old_median, new_median = statistics.median(old), statistics.median(new)
            change_frac = new_median / old_median - 1.0
            worse = -change_frac if metric["better"] == "higher" else change_frac
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            bad = bad or verdict != "ok"
            print(f"{workload:18s} {name:20s} {old_median:12.6g} -> "
                  f"{new_median:12.6g} {metric['unit']:5s} {change_frac:+7.1%} "
                  f"(spread {spread(old):.1%} / {spread(new):.1%}, "
                  f"bound {metric['bound']:.0%}) {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
