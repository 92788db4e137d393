"""Cross-validate the analytic model against the simulator.

Runs every cell of the calibration grid — the 30 jittered golden cells
(``tests/sim/golden_gen.py``) plus the 8 long-horizon periodic cells
(``tests/sim/golden_longhorizon_gen.py``) — through both the simulator
and :func:`repro.model.predict.predict_cell`, and reports per-cell
relative error on makespan and energy. This is the source of the
calibrated envelope in :mod:`repro.model.bounds` and the CI gate::

    PYTHONPATH=src python -m repro.model.validate

Exit status is non-zero if any *eligible* cell (per
:func:`repro.model.bounds.classify_cell`) exceeds
:data:`repro.model.bounds.MAX_RELATIVE_ERROR` on either metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from typing import Iterator, Optional

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig
from repro.machine.topology import (
    MachineConfig,
    dyadic_test_machine,
    opteron_8380_machine,
)
from repro.model.bounds import MAX_RELATIVE_ERROR, classify_cell
from repro.model.predict import predict_cell
from repro.runtime.task import Batch, TaskSpec, flat_batch
from repro.scenario.registry import POLICIES
from repro.sim.engine import simulate
from repro.workloads.benchmarks import benchmark_program
from repro.workloads.periodic import periodic_program

#: Mirrors tests/sim/golden_gen.py (the 30-cell jittered grid).
GOLDEN_SEEDS = (11, 23, 37)
GOLDEN_BENCHMARKS = ("SHA-1", "BWC")
GOLDEN_BATCHES = 3
WATS_LEVELS_16 = [0] * 8 + [1] * 4 + [3] * 4
_REF = 2.5e9

#: Mirrors tests/sim/golden_longhorizon_gen.py (the 8-cell periodic grid).
LONGHORIZON_SEEDS = (11, 23)
LONGHORIZON_POLICIES = ("cilk", "cilk-d", "wats", "eewa")
LONGHORIZON_BATCHES = 120
WATS_LEVELS_8 = [0, 0, 0, 0, 2, 2, 2, 2]
DYADIC_OVERHEAD = OverheadModel(base_seconds=2.0**-11, per_cell_seconds=2.0**-17)
DYADIC_EEWA = EEWAConfig(overhead_model=DYADIC_OVERHEAD)


def _spawn_program() -> list[Batch]:
    child = TaskSpec("leaf", cpu_cycles=0.002 * _REF)
    mid = TaskSpec("mid", cpu_cycles=0.004 * _REF, children=(child, child))
    roots = [
        TaskSpec("root", cpu_cycles=0.006 * _REF, children=(mid, child))
        for _ in range(24)
    ]
    return [flat_batch(0, roots), flat_batch(1, roots)]


@dataclasses.dataclass(frozen=True)
class ValidationCell:
    """One calibration-grid cell: everything both paths need."""

    name: str
    program: tuple[Batch, ...]
    policy: str
    machine: MachineConfig
    seed: int
    core_levels: Optional[list[int]] = None
    eewa_config: Optional[EEWAConfig] = None


@dataclasses.dataclass(frozen=True)
class ValidationRow:
    """Sim-vs-model comparison for one cell."""

    cell: str
    policy: str
    eligible: bool
    reason: Optional[str]
    sim_time: float
    sim_joules: float
    model_time: Optional[float]
    model_joules: Optional[float]
    time_error: Optional[float]
    joules_error: Optional[float]
    sim_seconds: float  # wall-clock of the simulation
    model_seconds: float  # wall-clock of the prediction

    @property
    def max_error(self) -> Optional[float]:
        if self.time_error is None or self.joules_error is None:
            return None
        return max(self.time_error, self.joules_error)

    @property
    def within_bounds(self) -> Optional[bool]:
        if self.max_error is None:
            return None
        return self.max_error <= MAX_RELATIVE_ERROR


def calibration_cells() -> Iterator[ValidationCell]:
    """The full grid: 30 golden cells + 8 long-horizon cells."""
    golden = opteron_8380_machine()
    for benchmark in GOLDEN_BENCHMARKS:
        for policy in ("cilk", "cilk-d", "wats", "eewa"):
            for seed in GOLDEN_SEEDS:
                program = benchmark_program(
                    benchmark, batches=GOLDEN_BATCHES, seed=seed
                )
                yield ValidationCell(
                    name=f"{benchmark}/{policy}/seed{seed}",
                    program=tuple(program),
                    policy=policy,
                    machine=golden,
                    seed=seed,
                    core_levels=WATS_LEVELS_16 if policy == "wats" else None,
                )
    for policy in ("cilk", "eewa"):
        for seed in GOLDEN_SEEDS:
            yield ValidationCell(
                name=f"spawn-tree/{policy}/seed{seed}",
                program=tuple(_spawn_program()),
                policy=policy,
                machine=golden,
                seed=seed,
            )
    dyadic = dyadic_test_machine(num_cores=8)
    for policy in LONGHORIZON_POLICIES:
        for seed in LONGHORIZON_SEEDS:
            yield ValidationCell(
                name=f"periodic/{policy}/seed{seed}",
                program=tuple(periodic_program(LONGHORIZON_BATCHES, 4, 8)),
                policy=policy,
                machine=dyadic,
                seed=seed,
                core_levels=WATS_LEVELS_8 if policy == "wats" else None,
                eewa_config=DYADIC_EEWA if policy == "eewa" else None,
            )


def _relative(model: float, sim: float) -> float:
    if sim == 0:
        return 0.0 if model == 0 else float("inf")
    return abs(model - sim) / abs(sim)


def validate_cell(cell: ValidationCell) -> ValidationRow:
    """Run one cell through both paths and compare."""
    verdict = classify_cell(
        cell.program,
        cell.policy,
        cell.machine,
        core_levels=cell.core_levels,
        eewa_config=cell.eewa_config,
    )
    t0 = time.perf_counter()
    policy_obj = POLICIES.get(cell.policy).build(
        core_levels=cell.core_levels, config=cell.eewa_config
    )
    sim = simulate(list(cell.program), policy_obj, cell.machine, seed=cell.seed)
    sim_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = predict_cell(
        cell.program,
        cell.policy,
        cell.machine,
        cell.seed,
        core_levels=cell.core_levels,
        eewa_config=cell.eewa_config,
    )
    model_seconds = time.perf_counter() - t0
    eligible = verdict.eligible
    reason = verdict.reason
    if model is None and eligible:
        # Structurally in-envelope but dynamically declined — e.g. a
        # mixed-speed schedule whose makespan turned out to be placement-
        # rotation (seed) dependent. Not a calibration failure.
        eligible = False
        reason = "declined at prediction time (seed-dependent schedule)"
    return ValidationRow(
        cell=cell.name,
        policy=cell.policy,
        eligible=eligible,
        reason=reason,
        sim_time=sim.total_time,
        sim_joules=sim.total_joules,
        model_time=model.total_time if model else None,
        model_joules=model.total_joules if model else None,
        time_error=_relative(model.total_time, sim.total_time) if model else None,
        joules_error=(
            _relative(model.total_joules, sim.total_joules) if model else None
        ),
        sim_seconds=sim_seconds,
        model_seconds=model_seconds,
    )


def run_validation() -> list[ValidationRow]:
    """Validate the whole calibration grid (38 cells)."""
    return [validate_cell(cell) for cell in calibration_cells()]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Cross-validate the analytic model against the simulator."
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list structurally declined cells",
    )
    args = parser.parse_args(argv)

    rows = run_validation()
    failures = 0
    print(
        f"{'cell':<28} {'policy':<7} {'time err':>9} {'joule err':>9} "
        f"{'speedup':>8}  status"
    )
    for row in rows:
        if row.model_time is None:
            if args.verbose:
                print(
                    f"{row.cell:<28} {row.policy:<7} {'-':>9} {'-':>9} "
                    f"{'-':>8}  declined: {row.reason}"
                )
            continue
        speedup = row.sim_seconds / row.model_seconds if row.model_seconds else 0.0
        if not row.eligible:
            status = f"ineligible: {row.reason}"
        elif row.within_bounds:
            status = "ok"
        else:
            status = f"FAIL (> {MAX_RELATIVE_ERROR:.0%})"
            failures += 1
        print(
            f"{row.cell:<28} {row.policy:<7} {row.time_error:>9.4%} "
            f"{row.joules_error:>9.4%} {speedup:>7.0f}x  {status}"
        )
    eligible = [r for r in rows if r.eligible]
    errs = sorted(r.max_error for r in eligible)
    if errs:
        print(
            f"\n{len(eligible)} eligible cells; max error "
            f"{errs[-1]:.4%}, median {errs[len(errs) // 2]:.4%} "
            f"(bound {MAX_RELATIVE_ERROR:.0%})"
        )
    if failures:
        print(f"{failures} eligible cell(s) exceeded the error bound")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
