"""Load-test harness for the sweep engine — writes ``BENCH_sweep.json``.

Throws a duplicate-heavy load (default 1000 submissions drawn from 8
distinct cells) at a :class:`~repro.experiments.sweep.SweepEngine` and
records, per phase:

* **cold** — fresh cache: the whole load is submitted up front, so every
  duplicate coalesces onto an in-flight cell and only the distinct cells
  simulate. Per-submission latency is time-to-resolution from phase start.
* **legacy per-call** — the pre-engine shape on the now-warm cache: every
  submission is its own run_cells-style call, paying one key computation
  plus one entry-file ``open`` + unpickle round-trip per cell (exactly
  what the one-shot per-call fan-out cost before the engine existed).
* **warm** — a *new* engine over the same cache: one entry file serves
  each distinct cell once, the in-memory memo serves every duplicate, and
  zero cells simulate.

Usage::

    PYTHONPATH=src python benchmarks/sweep_load.py [--submissions 1000]
        [--out BENCH_sweep.json] [--cache-dir DIR] [--no-check]

The acceptance gate (``--no-check`` disables it) asserts the warm phase
executed 0 simulations and achieved >= 5x the legacy per-call throughput.
Timings are machine-dependent; correctness is gated separately by
``tests/experiments/test_sweep_golden.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import shutil
import statistics
import sys
import tempfile
import time

from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    ResultCache,
    _resolve_program,
    cell_key,
)
from repro.experiments.sweep import SweepEngine
from repro.machine.topology import opteron_8380_machine

#: The distinct-cell population the duplicate-heavy load draws from.
BENCHMARKS = ("SHA-1", "BWC")
POLICIES = ("cilk", "eewa")
SEEDS = (11, 23)
BATCHES = 2

#: Deterministic load order (the harness has no RNG of its own beyond this).
RNG_SEED = 0xEE7A


def population() -> list[CellSpec]:
    return [
        CellSpec(benchmark=bench, policy=policy, seed=seed, batches=BATCHES)
        for bench in BENCHMARKS
        for policy in POLICIES
        for seed in SEEDS
    ]


def make_load(submissions: int) -> list[CellSpec]:
    cells = population()
    rng = random.Random(RNG_SEED)
    # Every distinct cell appears at least once; the rest is duplicates.
    load = list(cells)
    load.extend(rng.choice(cells) for _ in range(submissions - len(cells)))
    rng.shuffle(load)
    return load[:submissions]


def _percentiles_ms(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    qs = statistics.quantiles(ordered, n=100, method="inclusive")
    return {
        "p50_ms": 1e3 * qs[49],
        "p99_ms": 1e3 * qs[98],
        "max_ms": 1e3 * ordered[-1],
    }


def run_engine_phase(
    load: list[CellSpec], cache_dir: str, *, workers: int | None
) -> dict[str, object]:
    """Submit the whole load to one engine; latency = time to resolution."""
    engine = SweepEngine(workers=workers, cache_dir=cache_dir)
    try:
        started = time.perf_counter()
        tickets = engine.submit_many(load)
        latencies = []
        for ticket in tickets:
            ticket.result()
            latencies.append(time.perf_counter() - started)
        wall = time.perf_counter() - started
        stats = engine.stats
        dedup_hits = stats.deduplicated + stats.cache_hits
        return {
            "submissions": len(load),
            "wall_seconds": wall,
            "throughput_per_sec": len(load) / wall,
            "cells_simulated": stats.executed,
            "deduplicated_inflight": stats.deduplicated,
            "cache_hits": stats.cache_hits,
            "memo_hits": stats.memo_hits,
            "dispatch_chunks": stats.chunks,
            "dedup_hit_rate": dedup_hits / len(load),
            **_percentiles_ms(latencies),
        }
    finally:
        engine.close()


def run_legacy_phase(load: list[CellSpec], cache_dir: str) -> dict[str, object]:
    """The pre-engine per-call fan-out on a warm cache.

    Before the sweep engine, every ``run_cells`` call re-resolved its
    cells against the on-disk cache: per cell, one content-key
    computation and one ``open`` + unpickle of the entry file, with no
    cross-call memo. Replayed here verbatim (reads the entry files the
    cold phase just wrote).
    """
    machine = opteron_8380_machine()
    root = ResultCache(cache_dir)  # path layout helper only
    started = time.perf_counter()
    latencies = []
    for spec in load:
        program = _resolve_program(spec)
        key = cell_key(
            program, spec.policy, machine, spec.seed,
            core_levels=spec.core_levels, eewa_config=spec.eewa_config,
            policy_params=spec.policy_params, faults=spec.faults,
        )
        with open(root._path(key), "rb") as fh:  # one stat+open per call
            payload = pickle.load(fh)
        CellOutcome(
            spec=spec, key=key, result=payload["result"], from_cache=True,
            adjuster_wallclock_s=payload["adjuster_wallclock_s"],
            adjuster_decisions=payload["adjuster_decisions"],
        )
        latencies.append(time.perf_counter() - started)
    wall = time.perf_counter() - started
    return {
        "submissions": len(load),
        "wall_seconds": wall,
        "throughput_per_sec": len(load) / wall,
        **_percentiles_ms(latencies),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--submissions", type=int, default=1000)
    parser.add_argument("--out", default="BENCH_sweep.json")
    parser.add_argument(
        "--cache-dir",
        help="cache root to use (default: a fresh temp dir, removed after)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="engine worker processes (default 0: in-process)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the 0-simulated / >=5x-throughput acceptance assertions",
    )
    args = parser.parse_args(argv)
    if args.submissions < len(population()):
        parser.error(f"--submissions must be >= {len(population())}")

    load = make_load(args.submissions)
    owns_cache = args.cache_dir is None
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="sweep-load-")
    try:
        print(f"load: {len(load)} submissions over {len(population())} "
              f"distinct cells ({BATCHES} batches each)")

        cold = run_engine_phase(load, cache_dir, workers=args.workers)
        print(f"cold:   {cold['wall_seconds']:.3f}s "
              f"({cold['cells_simulated']} simulated in "
              f"{cold['dispatch_chunks']} chunks, "
              f"{100 * cold['dedup_hit_rate']:.1f}% dedup)")

        legacy = run_legacy_phase(load, cache_dir)
        print(f"legacy: {legacy['wall_seconds']:.3f}s "
              f"({legacy['throughput_per_sec']:.0f} lookups/s, "
              "one entry-file unpickle per call)")

        warm = run_engine_phase(load, cache_dir, workers=args.workers)
        warm["speedup_vs_legacy_per_call"] = (
            warm["throughput_per_sec"] / legacy["throughput_per_sec"]
        )
        print(f"warm:   {warm['wall_seconds']:.3f}s "
              f"({warm['cells_simulated']} simulated, "
              f"{warm['memo_hits']} memo hits, "
              f"{warm['speedup_vs_legacy_per_call']:.1f}x legacy throughput)")
    finally:
        if owns_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)

    report = {
        "generated_by": "benchmarks/sweep_load.py",
        "host": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        "load": {
            "submissions": len(load),
            "distinct_cells": len(population()),
            "benchmarks": list(BENCHMARKS),
            "policies": list(POLICIES),
            "seeds": list(SEEDS),
            "batches": BATCHES,
            "rng_seed": RNG_SEED,
        },
        "cold": cold,
        "legacy_per_call": legacy,
        "warm": warm,
        "acceptance": {
            "warm_cells_simulated": warm["cells_simulated"],
            "warm_speedup_vs_legacy_per_call":
                warm["speedup_vs_legacy_per_call"],
            "meets_5x_over_legacy": warm["speedup_vs_legacy_per_call"] >= 5.0,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not args.no_check:
        assert warm["cells_simulated"] == 0, (
            f"warm phase simulated {warm['cells_simulated']} cells; "
            "expected every submission to be served from cache/memo"
        )
        assert warm["speedup_vs_legacy_per_call"] >= 5.0, (
            f"warm throughput only {warm['speedup_vs_legacy_per_call']:.1f}x "
            "the legacy per-call fan-out (need >= 5x)"
        )
        print("acceptance: warm phase 0 simulated, >=5x legacy — OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
