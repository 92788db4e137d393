"""Extension experiment: savings as a function of workload imbalance.

Formalises the Fig. 3 discussion ("workload imbalance causes the
underutilization of the computational capacity of the cores ... this is
why EEWA can ... reduce energy consumption"): sweeping the number of heavy
anchor tasks per batch moves the machine from granularity-bound (lots of
slack) to saturated (none), and EEWA's savings track the slack almost
linearly until they hit zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.spec import ScenarioSpec
from repro.workloads.synthetic import imbalance_sweep_spec
from repro.workloads.validation import diagnose

DEFAULT_ANCHORS = (2, 4, 6, 8, 10, 12, 14)


@dataclass(frozen=True)
class ImbalancePoint:
    anchors: int
    utilization: float
    slack_cores: float
    energy_saving_pct: float
    time_change_pct: float
    modal_config: tuple[int, ...]


@dataclass(frozen=True)
class ImbalanceSweepResult:
    points: tuple[ImbalancePoint, ...]

    def table(self) -> str:
        return format_table(
            ["anchors", "util", "slack cores", "dE %", "dT %", "modal config"],
            [
                (
                    p.anchors,
                    f"{p.utilization:.0%}",
                    p.slack_cores,
                    -p.energy_saving_pct,
                    p.time_change_pct,
                    str(p.modal_config),
                )
                for p in self.points
            ],
            title="Extension — EEWA savings vs workload imbalance",
            float_fmt="{:.1f}",
        )

    def savings_monotone_in_slack(self) -> bool:
        """More slack must never yield less saving (within noise)."""
        ordered = sorted(self.points, key=lambda p: p.slack_cores)
        savings = [p.energy_saving_pct for p in ordered]
        return all(b >= a - 2.0 for a, b in zip(savings, savings[1:]))


def run_imbalance_sweep(
    *,
    anchors: Sequence[int] = DEFAULT_ANCHORS,
    batches: int = 10,
    seed: int = 5,
) -> ImbalanceSweepResult:
    """Run the sweep and collect (slack -> savings) points.

    One scenario grid — (anchor count × {cilk, eewa}) on the paper's
    machine — on a SweepEngine.
    """
    specs = [imbalance_sweep_spec(n) for n in anchors]
    grid = [
        ScenarioSpec(workload=spec, policy=policy, seeds=(seed,), batches=batches)
        for spec in specs
        for policy in ("cilk", "eewa")
    ]
    with SweepEngine() as engine:
        outcomes = engine.run_grid(grid)
    points = []
    for i, (n, spec) in enumerate(zip(anchors, specs)):
        d = diagnose(spec, grid[2 * i].build_machine().num_cores)
        cilk, eewa = outcomes[2 * i].first, outcomes[2 * i + 1].first
        points.append(
            ImbalancePoint(
                anchors=n,
                utilization=d.utilization,
                slack_cores=d.slack_cores,
                energy_saving_pct=100.0 * (1 - eewa.total_joules / cilk.total_joules),
                time_change_pct=100.0 * (eewa.total_time / cilk.total_time - 1),
                modal_config=eewa.trace.modal_histogram() or (),
            )
        )
    return ImbalanceSweepResult(points=tuple(points))
