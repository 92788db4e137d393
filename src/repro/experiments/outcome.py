"""Result containers shared by the runner, the parallel runner, and Session.

Kept free of experiment-layer imports so both the scenario layer and the
experiment runners can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.machine.topology import MachineConfig
from repro.sim.engine import SimResult
from repro.sim.record import CellResult

__all__ = ["RunOutcome", "modal_levels_from_result"]


@dataclass(frozen=True)
class RunOutcome:
    """One benchmark under one policy, possibly over several seeds.

    ``results`` are full results from the serial runner and cell records
    from the sweep engine; both carry the scalars and the trace.
    """

    benchmark: str
    policy: str
    results: tuple[SimResult | CellResult, ...]

    @property
    def time_mean(self) -> float:
        return sum(r.total_time for r in self.results) / len(self.results)

    @property
    def energy_mean(self) -> float:
        return sum(r.total_joules for r in self.results) / len(self.results)

    @property
    def first(self) -> SimResult | CellResult:
        return self.results[0]


def modal_levels_from_result(
    result: SimResult | CellResult,
    num_cores: int,
    machine: Optional[MachineConfig] = None,
) -> list[int]:
    """Expand a run's modal level histogram into a per-core level vector.

    On heterogeneous machines the trace histogram is indexed by *global
    operating point*, while a fixed level vector holds type-local DVFS
    levels — so each histogram bucket is mapped back to its core type's
    ladder and laid out over that type's contiguous core-id range.
    """
    hist = result.trace.modal_histogram()
    if hist is None:
        return [0] * num_cores
    if machine is None or not machine.is_heterogeneous:
        levels: list[int] = []
        for level, count in enumerate(hist):
            levels.extend([level] * count)
        return levels
    scale = machine.scale
    by_type: dict[str, list[int]] = {name: [] for name, _ in machine.capacities()}
    for op, count in enumerate(hist):
        by_type[scale.core_type_of(op)].extend([scale.type_level_of(op)] * count)
    return [
        level for name, _ in machine.capacities() for level in by_type[name]
    ]
