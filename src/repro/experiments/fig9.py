"""Fig. 9 — scalability: DMC on 4/8/12/16 cores under Cilk, Cilk-D, EEWA.

Paper shape targets: with few cores (4) the machine is saturated — EEWA
keeps everything fast, saves nothing, and loses only fractions of a percent
to overhead; savings grow monotonically with core count (23.8% at 12 cores
vs Cilk with only 2.8% slowdown; more at 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.registry import baseline_policy_names
from repro.scenario.spec import DEFAULT_SEEDS, MachineSpec, ScenarioSpec

DEFAULT_CORE_COUNTS = (4, 8, 12, 16)


@dataclass(frozen=True)
class Fig9Point:
    """Normalised metrics at one core count (Cilk at that count = 1.0)."""

    cores: int
    time_cilk_d: float
    time_eewa: float
    energy_cilk_d: float
    energy_eewa: float


@dataclass(frozen=True)
class Fig9Result:
    benchmark: str
    points: tuple[Fig9Point, ...]

    def table(self) -> str:
        return format_table(
            ["cores", "t(cilk-d)", "t(eewa)", "E(cilk-d)", "E(eewa)", "eewa dE%"],
            [
                (
                    p.cores,
                    p.time_cilk_d,
                    p.time_eewa,
                    p.energy_cilk_d,
                    p.energy_eewa,
                    100.0 * (p.energy_eewa - 1.0),
                )
                for p in self.points
            ],
            title=f"Fig. 9 — {self.benchmark} scalability (Cilk = 1.0 per core count)",
        )

    def eewa_savings_by_cores(self) -> dict[int, float]:
        """Core count -> EEWA energy reduction percent vs Cilk."""
        return {p.cores: 100.0 * (1.0 - p.energy_eewa) for p in self.points}


def run_fig9(
    *,
    benchmark: str = "DMC",
    core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
    batches: int | None = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Fig9Result:
    """Regenerate Fig. 9's core-count sweep.

    One scenario grid — (core count × baseline policy) on the paper's
    machine — on a SweepEngine.
    """
    policies = baseline_policy_names()
    grid = [
        ScenarioSpec(
            workload=benchmark,
            policy=policy,
            machine=MachineSpec(num_cores=cores),
            seeds=tuple(seeds),
            batches=batches,
        )
        for cores in core_counts
        for policy in policies
    ]
    with SweepEngine() as engine:
        outcomes = dict(
            zip(
                [(cores, policy) for cores in core_counts for policy in policies],
                engine.run_grid(grid),
            )
        )
    points = []
    for cores in core_counts:
        base_t = outcomes[(cores, "cilk")].time_mean
        base_e = outcomes[(cores, "cilk")].energy_mean
        points.append(
            Fig9Point(
                cores=cores,
                time_cilk_d=outcomes[(cores, "cilk-d")].time_mean / base_t,
                time_eewa=outcomes[(cores, "eewa")].time_mean / base_t,
                energy_cilk_d=outcomes[(cores, "cilk-d")].energy_mean / base_e,
                energy_eewa=outcomes[(cores, "eewa")].energy_mean / base_e,
            )
        )
    return Fig9Result(benchmark=benchmark, points=tuple(points))
