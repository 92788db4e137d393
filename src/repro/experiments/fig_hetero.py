"""Heterogeneous extension exhibit: the policies on a big.LITTLE machine.

The paper evaluates on a homogeneous 16-core Opteron; this exhibit is the
reproduction's extension to heterogeneous (core type, frequency) machines.
Every registered policy runs on the dyadic 4+4 big.LITTLE test machine
(:func:`repro.machine.topology.big_little_test_machine`), where the
operating-point space merges two per-type ladders with overlapping
electrical frequencies and a cross-type effective-speed tie.

Cilk is the baseline (random stealing is type-blind: heavy tasks land on
LITTLE cores); WATS runs on the fixed per-type spread configuration
(:func:`repro.scenario.registry.spread_levels_for`); EEWA searches its
k-tuples under per-type core budgets and groups c-groups by global
operating point, so it can trade big-core frequency against LITTLE-core
occupancy per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.registry import spread_levels_for
from repro.scenario.spec import (
    DEFAULT_SEEDS,
    MachineSpec,
    PolicySpec,
    ScenarioSpec,
)
from repro.workloads.benchmarks import BENCHMARK_NAMES

#: Comparison order; cilk is the normalisation baseline.
HETERO_POLICIES = ("cilk", "cilk-d", "wats", "eewa")


@dataclass(frozen=True)
class HeteroRow:
    """Time/energy ratios vs Cilk (Cilk = 1.0) for one benchmark."""

    benchmark: str
    time_over_cilk: tuple[float, ...]  # in HETERO_POLICIES[1:] order
    energy_over_cilk: tuple[float, ...]


@dataclass(frozen=True)
class HeteroResult:
    machine_label: str
    rows: tuple[HeteroRow, ...]

    def table(self) -> str:
        others = HETERO_POLICIES[1:]
        return format_table(
            ["benchmark"]
            + [f"t({p})" for p in others]
            + [f"E({p})" for p in others],
            [
                (r.benchmark, *r.time_over_cilk, *r.energy_over_cilk)
                for r in self.rows
            ],
            title=(
                f"fig_hetero — {self.machine_label}: "
                "time and energy vs cilk (cilk = 1.0)"
            ),
        )


def run_fig_hetero(
    *,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    batches: int | None = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    big_cores: int = 4,
    little_cores: int = 4,
    include_phased: bool = True,
) -> HeteroResult:
    """Run every policy over the benchmarks on a big.LITTLE machine.

    One scenario wave on one SweepEngine, like every other exhibit; rows
    are normalised to the Cilk cell of the same benchmark.
    ``big_cores``/``little_cores`` skew the partition — the scenario pins
    it through the schema-v3 ``core_types`` axis, so the cells are keyed
    by the exact machine shape.
    """
    names = list(benchmarks) + (["DMC-phased"] if include_phased else [])
    machine_spec = MachineSpec(
        preset="big-little-test",
        core_types=(("big", big_cores), ("little", little_cores)),
    )
    wats_levels = tuple(spread_levels_for(machine_spec.build()))
    grid = [
        ScenarioSpec(
            workload=name,
            policy=(
                PolicySpec("wats", core_levels=wats_levels)
                if policy == "wats"
                else PolicySpec(policy)
            ),
            machine=machine_spec,
            seeds=tuple(seeds),
            batches=batches,
        )
        for name in names
        for policy in HETERO_POLICIES
    ]
    with SweepEngine() as engine:
        outcomes = engine.run_grid(grid)
    rows = []
    width = len(HETERO_POLICIES)
    for i, name in enumerate(names):
        cell = outcomes[i * width : (i + 1) * width]
        cilk = cell[0]
        rows.append(
            HeteroRow(
                benchmark=name,
                time_over_cilk=tuple(
                    o.time_mean / cilk.time_mean for o in cell[1:]
                ),
                energy_over_cilk=tuple(
                    o.energy_mean / cilk.energy_mean for o in cell[1:]
                ),
            )
        )
    return HeteroResult(
        machine_label=f"big.LITTLE {big_cores}+{little_cores}",
        rows=tuple(rows),
    )
