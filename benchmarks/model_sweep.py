"""Analytic-model sweep benchmark — writes ``BENCH_model.json``.

Drives a large grid (default 1,000,000 cells) through the sweep engine's
``fidelity="auto"`` tier and records the per-cell cost of serving a cell
from the analytic predictor versus cold simulation. The grid is the
long-horizon periodic family the model was calibrated on
(``tests/sim/golden_longhorizon_gen.py`` shape): periodic programs of
120/240 batches in three heavy/light mixes on the 8-core dyadic machine,
under 9 policy configurations (pinned-cilk level vectors, cilk-d idle
grace values, eewa headroom variants) — 54 distinct (program × policy)
combinations, multiplied out over seeds to the requested cell count.
Every combination lies inside the model's calibrated envelope (12-task
batches on 8 homogeneous cores, uniform levels only), so ``auto`` serves
the whole grid from the predictor.

Three measurements, all recorded honestly:

* **model phase** — every cell submitted through a ``fidelity="auto"``
  :class:`~repro.experiments.sweep.SweepEngine` with the cache disabled,
  so each submission pays the envelope check and the full prediction
  cost (per-cell numbers here are genuine compute, not lookups).
* **cold-sim sample** — one cold simulation per distinct (program ×
  policy) combination, timed through the engine's real worker entry
  point (``_simulate_cell``, ``fast_forward=True``). Sampled, not
  exhaustive: simulating the full grid at ~50 ms/cell would take hours;
  the sample covers every combination exactly once and the report says
  so. The sampled cells double as an in-grid accuracy check: model vs
  sim relative error is recorded per sample.
* **calibration-grid validation** — :func:`repro.model.validate.run_validation`
  over the 30 golden + 8 long-horizon cells: per-metric error
  percentiles for every eligible cell plus the aggregate speedup on the
  golden grid itself (much smaller than on this grid — the golden cells
  are 3-batch programs, where the adjuster cost the model and simulator
  *share* dominates).

Usage::

    PYTHONPATH=src python benchmarks/model_sweep.py [--cells 1000000]
        [--out BENCH_model.json] [--sim-sample 54] [--no-check]

The acceptance gate (``--no-check`` disables it) asserts every grid cell
was served by the model, the per-cell model cost is >= 100x cheaper than
the sampled cold-sim cost, and every model-eligible cell — sampled and
calibration-grid — is within the calibrated error bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig
from repro.experiments.parallel import CellSpec, _simulate_cell
from repro.experiments.sweep import SweepEngine
from repro.machine.topology import dyadic_test_machine
from repro.model.bounds import MAX_RELATIVE_ERROR
from repro.model.validate import run_validation
from repro.workloads.periodic import periodic_program

#: Program axes (shared tuples — one generation per shape, hashed once).
BATCH_COUNTS = (120, 240)
SHAPES = ((4, 8), (2, 10), (6, 6))  # (heavy, light) tasks per batch

#: The long-horizon grid's dyadic batch-boundary overhead (float-exact).
DYADIC_OVERHEAD = OverheadModel(base_seconds=2.0**-11, per_cell_seconds=2.0**-17)

NUM_CORES = 8


def policy_configs() -> list[tuple[str, dict]]:
    """The 9 policy configurations each program is crossed with."""
    return [
        ("cilk", {}),
        ("cilk", {"core_levels": (1,) * NUM_CORES}),
        # Uniform pins only: mixed per-core levels can make the schedule
        # placement-rotation (seed) dependent, which the model declines
        # and this benchmark's all-model acceptance gate forbids.
        ("cilk", {"core_levels": (2,) * NUM_CORES}),
        ("cilk-d", {}),
        ("cilk-d", {"policy_params": (("idle_grace_s", 0.001),)}),
        ("cilk-d", {"policy_params": (("idle_grace_s", 0.004),)}),
        ("eewa", {"eewa_config": EEWAConfig(overhead_model=DYADIC_OVERHEAD)}),
        ("eewa", {"eewa_config": EEWAConfig(
            overhead_model=DYADIC_OVERHEAD, headroom=0.2)}),
        ("eewa", {"eewa_config": EEWAConfig(
            overhead_model=DYADIC_OVERHEAD, headroom=0.05)}),
    ]


def combos() -> list[tuple[str, tuple, str, dict]]:
    """All distinct (program × policy) combinations, programs shared."""
    out = []
    for batches in BATCH_COUNTS:
        for heavy, light in SHAPES:
            label = f"periodic-{batches}x{heavy}h{light}l"
            program = tuple(periodic_program(batches, heavy, light))
            for policy, kwargs in policy_configs():
                out.append((label, program, policy, kwargs))
    return out


def grid_cells(cells: int, machine) -> "list[CellSpec]":
    """The benchmark grid: combos × seeds, truncated to ``cells``."""
    base = combos()
    seeds = -(-cells // len(base))  # ceil
    out = []
    for seed in range(seeds):
        for label, program, policy, kwargs in base:
            if len(out) == cells:
                return out
            out.append(CellSpec(
                benchmark=label, policy=policy, seed=seed,
                program=program, machine=machine, **kwargs,
            ))
    return out


def _percentiles_us(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    qs = statistics.quantiles(ordered, n=100, method="inclusive")
    return {
        "p50_us": 1e6 * qs[49],
        "p99_us": 1e6 * qs[98],
        "max_us": 1e6 * ordered[-1],
    }


def run_model_phase(specs: list[CellSpec], machine) -> dict[str, object]:
    """Every cell through ``fidelity="auto"``, cache off: pure compute."""
    engine = SweepEngine(
        machine=machine, workers=0, cache_dir=None, fidelity="auto"
    )
    latencies: list[float] = []
    sources: dict[str, int] = {}
    try:
        started = time.perf_counter()
        for i, spec in enumerate(specs):
            t0 = time.perf_counter()
            outcome = engine.submit(spec).result()
            latencies.append(time.perf_counter() - t0)
            sources[outcome.source] = sources.get(outcome.source, 0) + 1
            if (i + 1) % 100_000 == 0:
                rate = (i + 1) / (time.perf_counter() - started)
                print(f"  model: {i + 1}/{len(specs)} cells ({rate:.0f}/s)")
        wall = time.perf_counter() - started
    finally:
        engine.close()
    return {
        "cells": len(specs),
        "wall_seconds": wall,
        "throughput_per_sec": len(specs) / wall,
        "per_cell_us": 1e6 * statistics.fmean(latencies),
        "sources": sources,
        "model_cells": engine.stats.model_cells,
        **_percentiles_us(latencies),
    }


def run_sim_sample(sample: int, machine) -> dict[str, object]:
    """One cold simulation per sampled combo, plus model-vs-sim error."""
    from repro.model.predict import predict_cell

    rows = []
    for label, program, policy, kwargs in combos()[:sample]:
        args = (
            program, policy, machine, 0,
            kwargs.get("core_levels"), kwargs.get("eewa_config"),
            kwargs.get("policy_params"), True, None,
        )
        t0 = time.perf_counter()
        payload = _simulate_cell(*args)
        sim_seconds = time.perf_counter() - t0
        sim = payload["result"]
        model = predict_cell(
            program, policy, machine, 0,
            core_levels=kwargs.get("core_levels"),
            eewa_config=kwargs.get("eewa_config"),
            policy_params=kwargs.get("policy_params"),
        )
        rows.append({
            "combo": f"{label}/{policy}",
            "sim_seconds": sim_seconds,
            "time_error": abs(model.total_time - sim.total_time)
            / sim.total_time,
            "joules_error": abs(model.total_joules - sim.total_joules)
            / sim.total_joules,
        })
    per_cell = statistics.fmean(r["sim_seconds"] for r in rows)
    return {
        "sampled_combos": len(rows),
        "note": "cold sim sampled once per distinct combo, not per cell",
        "per_cell_ms": 1e3 * per_cell,
        "max_time_error": max(r["time_error"] for r in rows),
        "max_joules_error": max(r["joules_error"] for r in rows),
        "rows": rows,
    }


def run_calibration_validation() -> dict[str, object]:
    """The full calibration grid: error percentiles + golden speedup."""
    rows = run_validation()
    eligible = [r for r in rows if r.eligible]
    errors = sorted(r.max_error for r in eligible)

    def pct(p: float) -> float:
        return errors[min(len(errors) - 1, int(p * (len(errors) - 1)))]

    golden = [r for r in rows if not r.cell.startswith("periodic/")]
    golden_eligible = [r for r in golden if r.eligible]
    return {
        "cells": len(rows),
        "eligible_cells": len(eligible),
        "declined_or_ineligible": len(rows) - len(eligible),
        "error_bound": MAX_RELATIVE_ERROR,
        "max_error": errors[-1],
        "error_p50": pct(0.50),
        "error_p90": pct(0.90),
        "error_p99": pct(0.99),
        "all_within_bounds": all(r.within_bounds for r in eligible),
        "golden_grid_speedup_per_cell": (
            sum(r.sim_seconds for r in golden_eligible)
            / sum(r.model_seconds for r in golden_eligible)
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=1_000_000)
    parser.add_argument("--out", default="BENCH_model.json")
    parser.add_argument(
        "--sim-sample", type=int, default=len(combos()),
        help="distinct combos to cold-simulate for the baseline "
        f"(default: all {len(combos())})",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the all-model / >=100x / error-bound assertions",
    )
    args = parser.parse_args(argv)
    n_combos = len(combos())
    if args.cells < n_combos:
        parser.error(f"--cells must be >= {n_combos}")
    sample = max(1, min(args.sim_sample, n_combos))

    machine = dyadic_test_machine(num_cores=NUM_CORES)
    specs = grid_cells(args.cells, machine)
    print(f"grid: {len(specs)} cells over {n_combos} distinct "
          f"(program x policy) combos, {specs[-1].seed + 1} seeds")

    model = run_model_phase(specs, machine)
    print(f"model: {model['wall_seconds']:.1f}s "
          f"({model['throughput_per_sec']:.0f} cells/s, "
          f"{model['per_cell_us']:.0f} us/cell)")

    sim = run_sim_sample(sample, machine)
    print(f"sim:   {sim['per_cell_ms']:.1f} ms/cell cold "
          f"({sim['sampled_combos']} combos sampled, "
          f"max error {max(sim['max_time_error'], sim['max_joules_error']):.4%})")

    speedup = (1e3 * sim["per_cell_ms"]) / model["per_cell_us"]
    print(f"speedup: {speedup:.0f}x per cell (model vs sampled cold sim)")

    validation = run_calibration_validation()
    print(f"calibration grid: {validation['eligible_cells']} eligible cells, "
          f"max error {validation['max_error']:.4%} "
          f"(bound {validation['error_bound']:.0%}); "
          f"golden-grid speedup "
          f"{validation['golden_grid_speedup_per_cell']:.0f}x per cell")

    report = {
        "generated_by": "benchmarks/model_sweep.py",
        "host": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        "grid": {
            "cells": len(specs),
            "distinct_combos": n_combos,
            "batch_counts": list(BATCH_COUNTS),
            "shapes": [list(s) for s in SHAPES],
            "num_cores": NUM_CORES,
            "note": "model predictions are seed-independent; the cache is "
            "disabled so every cell pays full prediction compute",
        },
        "model_phase": model,
        "cold_sim_sample": sim,
        "calibration_validation": validation,
        "acceptance": {
            "all_cells_model_served":
                model["model_cells"] == len(specs),
            "speedup_per_cell_vs_cold_sim": speedup,
            "meets_100x": speedup >= 100.0,
            "sampled_errors_within_bounds": (
                max(sim["max_time_error"], sim["max_joules_error"])
                <= MAX_RELATIVE_ERROR
            ),
            "calibration_within_bounds": validation["all_within_bounds"],
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not args.no_check:
        acc = report["acceptance"]
        assert acc["all_cells_model_served"], (
            f"{len(specs) - model['model_cells']} cells were not served "
            "by the model tier"
        )
        assert acc["meets_100x"], (
            f"model only {speedup:.0f}x cheaper per cell than cold sim "
            "(need >= 100x)"
        )
        assert acc["sampled_errors_within_bounds"], (
            "a sampled grid cell exceeded the calibrated error bound"
        )
        assert acc["calibration_within_bounds"], (
            "a calibration-grid cell exceeded the calibrated error bound"
        )
        print("acceptance: all model-served, >=100x, errors in bounds — OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
