"""Fig. 7 — Cilk and WATS on EEWA-chosen asymmetric configurations.

For each benchmark the machine is *fixed* at the most-used frequency
configuration EEWA picked (its modal per-batch c-group layout, Fig. 8
style); Cilk and WATS then run on that asymmetric machine while EEWA keeps
its own dynamic control.

Paper shape targets: Cilk's time is 1.17-2.92x EEWA's (random stealing puts
heavy tasks on slow cores), WATS's is 1.05-1.24x (workload-aware placement
but no per-batch DVFS adaptation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.outcome import modal_levels_from_result
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.spec import DEFAULT_SEEDS, PolicySpec, ScenarioSpec
from repro.workloads.benchmarks import BENCHMARK_NAMES


@dataclass(frozen=True)
class Fig7Row:
    """Execution times relative to EEWA (EEWA = 1.0)."""

    benchmark: str
    cilk_over_eewa: float
    wats_over_eewa: float
    fixed_levels: tuple[int, ...]


@dataclass(frozen=True)
class Fig7Result:
    rows: tuple[Fig7Row, ...]

    def table(self) -> str:
        return format_table(
            ["benchmark", "cilk/eewa", "wats/eewa", "fixed config (cores/level)"],
            [
                (
                    r.benchmark,
                    r.cilk_over_eewa,
                    r.wats_over_eewa,
                    _histogram(r.fixed_levels),
                )
                for r in self.rows
            ],
            title="Fig. 7 — time on EEWA-chosen asymmetric configs (EEWA = 1.0)",
        )


def _histogram(levels: Sequence[int]) -> str:
    counts: dict[int, int] = {}
    for lv in levels:
        counts[lv] = counts.get(lv, 0) + 1
    return " ".join(f"F{lv}:{counts[lv]}" for lv in sorted(counts))


def run_fig7(
    *,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    batches: int | None = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    include_phased: bool = True,
) -> Fig7Result:
    """Regenerate Fig. 7's data.

    ``include_phased`` appends the ``DMC-phased`` row: the Table II
    benchmarks are stationary batch-to-batch, and on stationary workloads a
    fixed configuration with workload-aware stealing matches EEWA — the
    paper's WATS gap (1.05-1.24x) appears when the workload composition
    varies across batches, which the phased workload reproduces.

    Two scenario waves on one engine on the paper's machine: the EEWA
    runs, with each benchmark's modal configuration read off its EEWA run
    at the first default seed, then Cilk and WATS pinned to those
    configurations. When the EEWA wave ran that seed, the configuration
    comes from the wave's own cell; otherwise
    :meth:`~repro.experiments.sweep.SweepEngine.modal_eewa_levels` runs it.
    """
    names = list(benchmarks) + (["DMC-phased"] if include_phased else [])
    seeds = tuple(seeds)
    eewa_grid = [
        ScenarioSpec(workload=name, policy="eewa", seeds=seeds, batches=batches)
        for name in names
    ]
    with SweepEngine() as engine:
        eewa_outcomes = engine.run_grid(eewa_grid)
        levels_by_name = {}
        for name, spec, eewa in zip(names, eewa_grid, eewa_outcomes):
            if DEFAULT_SEEDS[0] in seeds:
                machine = spec.build_machine()
                levels = modal_levels_from_result(
                    eewa.results[seeds.index(DEFAULT_SEEDS[0])],
                    machine.num_cores, machine,
                )
            else:
                levels = engine.modal_eewa_levels(spec)
            levels_by_name[name] = tuple(levels)
        fixed = engine.run_grid(
            [
                ScenarioSpec(
                    workload=name,
                    policy=PolicySpec(policy, core_levels=levels_by_name[name]),
                    seeds=seeds,
                    batches=batches,
                )
                for name in names
                for policy in ("cilk", "wats")
            ]
        )
    rows = []
    for i, (name, eewa) in enumerate(zip(names, eewa_outcomes)):
        cilk, wats = fixed[2 * i], fixed[2 * i + 1]
        rows.append(
            Fig7Row(
                benchmark=name,
                cilk_over_eewa=cilk.time_mean / eewa.time_mean,
                wats_over_eewa=wats.time_mean / eewa.time_mean,
                fixed_levels=levels_by_name[name],
            )
        )
    return Fig7Result(rows=tuple(rows))
