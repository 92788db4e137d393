"""Compare two sets of benchmark runs metric by metric.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl [--pairs]

``A`` is the parent, ``B`` the change; each file holds the JSON lines
``run.py --out`` appends (untraced runs are compared, traced ones are
skipped). For every (end-to-end metric, workload) it prints each side's
median and quartiles and a verdict, using the bounds in BENCHMARK.json:

* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better by more than the bound;
* ``unchanged`` -- neither, and A's interquartile spread is within the bound;
* ``unresolved`` -- A's spread is wider than the bound, unless every run
  of B reads better than every run of A (``better``).

``--pairs`` judges a claimed gain instead: the i-th runs of A and B on a
workload form a pair (run them alternately, parent first in every other
pair). ``better`` then needs at least 10 pairs, B winning at least 9 in
10 of them (ties count for neither side), and a median gap larger than
A's interquartile range. Regressions are still judged by the bound.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, list[dict[str, Any]]]:
    """Untraced runs per workload, in file order."""
    runs: dict[str, list[dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                row = json.loads(line)
                if not row["trace"]:
                    runs.setdefault(row["workload"], []).append(row["result"]["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool,
            pairs: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    worse_by = sign * (med_b - med_a) / abs(med_a)
    if worse_by > bound:
        return "worse"
    if pairs:
        n = min(len(a), len(b))
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        if n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (med_a - med_b) > q3 - q1:
            return "better"
    elif -worse_by > bound:
        return "better"
    if (q3 - q1) / abs(med_a) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", action="store_true", help="judge a claimed gain")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    worse = False
    print(f"{'workload':<16} {'metric':<20} {'parent q1/median/q3':>32} "
          f"{'change q1/median/q3':>32}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in metrics:
            name = metric["name"]
            a = [run[name]["value"] for run in parent[workload]]
            b = [run[name]["value"] for run in change[workload]]
            result = verdict(a, b, metric["bound"], metric["better"] == "lower", args.pairs)
            if args.pairs and min(len(a), len(b)) < MIN_PAIRS and result != "worse":
                result += f" ({min(len(a), len(b))} pairs < {MIN_PAIRS})"
            worse |= result == "worse"
            fmt = "{:>10.4g} {:>10.4g} {:>10.4g}"
            print(f"{workload:<16} {name:<20} {fmt.format(*quartiles(a)):>32} "
                  f"{fmt.format(*quartiles(b)):>32}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
