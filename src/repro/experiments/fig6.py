"""Fig. 6 — normalised time and energy of all benchmarks under
Cilk, Cilk-D and EEWA on the 16-core machine.

Paper shape targets: EEWA cuts energy 8.7-29.8% below Cilk with at most a
few percent time change; Cilk-D sits between the two on energy
(6.7-12.8% below Cilk); for most applications EEWA's time penalty is
within ~2%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.metrics import energy_reduction_percent
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.registry import baseline_policy_names
from repro.scenario.spec import DEFAULT_SEEDS, ScenarioSpec
from repro.workloads.benchmarks import BENCHMARK_NAMES


@dataclass(frozen=True)
class Fig6Row:
    """One benchmark's normalised metrics (Cilk = 1.0)."""

    benchmark: str
    time_cilk: float
    time_cilk_d: float
    time_eewa: float
    energy_cilk: float
    energy_cilk_d: float
    energy_eewa: float

    @property
    def eewa_energy_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.energy_eewa)

    @property
    def eewa_time_change_pct(self) -> float:
        return 100.0 * (self.time_eewa - 1.0)

    @property
    def cilk_d_energy_reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.energy_cilk_d)


@dataclass(frozen=True)
class Fig6Result:
    rows: tuple[Fig6Row, ...]

    def table(self) -> str:
        return format_table(
            [
                "benchmark",
                "t(cilk)",
                "t(cilk-d)",
                "t(eewa)",
                "E(cilk)",
                "E(cilk-d)",
                "E(eewa)",
                "eewa dE%",
            ],
            [
                (
                    r.benchmark,
                    r.time_cilk,
                    r.time_cilk_d,
                    r.time_eewa,
                    r.energy_cilk,
                    r.energy_cilk_d,
                    r.energy_eewa,
                    -r.eewa_energy_reduction_pct,
                )
                for r in self.rows
            ],
            title="Fig. 6 — normalised execution time and energy (Cilk = 1.0)",
        )


def run_fig6(
    *,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    batches: int | None = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
) -> Fig6Result:
    """Regenerate Fig. 6's data.

    The exhibit is one scenario grid on the paper's machine — every
    benchmark crossed with the baseline comparison set
    (:func:`baseline_policy_names`) — run through a
    :class:`~repro.experiments.sweep.SweepEngine`.
    """
    policies = baseline_policy_names()
    grid = [
        ScenarioSpec(
            workload=name, policy=policy, seeds=tuple(seeds), batches=batches,
        )
        for name in benchmarks
        for policy in policies
    ]
    with SweepEngine() as engine:
        outcomes = {
            (o.benchmark, o.policy): o for o in engine.run_grid(grid)
        }
    rows = []
    for name in benchmarks:
        base_t = outcomes[(name, "cilk")].time_mean
        base_e = outcomes[(name, "cilk")].energy_mean
        rows.append(
            Fig6Row(
                benchmark=name,
                time_cilk=1.0,
                time_cilk_d=outcomes[(name, "cilk-d")].time_mean / base_t,
                time_eewa=outcomes[(name, "eewa")].time_mean / base_t,
                energy_cilk=1.0,
                energy_cilk_d=outcomes[(name, "cilk-d")].energy_mean / base_e,
                energy_eewa=outcomes[(name, "eewa")].energy_mean / base_e,
            )
        )
    return Fig6Result(rows=tuple(rows))


__all__ = ["Fig6Result", "Fig6Row", "run_fig6", "energy_reduction_percent"]
