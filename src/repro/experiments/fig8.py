"""Fig. 8 — cores per frequency across the 10 batches of SHA-1.

Paper shape targets: batch 1 runs all 16 cores at the top frequency
(profiling); from batch 2 on, a handful of cores stay fast (the paper shows
5 at 2.5 GHz) while the majority drop to the lowest frequency (11 at
0.8 GHz), and the configuration is stable across batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.eewa import EEWAConfig
from repro.experiments.report import format_table
from repro.machine.topology import MachineConfig
from repro.scenario.session import Session
from repro.scenario.spec import MachineSpec, PolicySpec, ScenarioSpec
from repro.sim.engine import SimResult


@dataclass(frozen=True)
class Fig8Result:
    benchmark: str
    #: per-batch (cores at F0, F1, ..., F_{r-1})
    histograms: tuple[tuple[int, ...], ...]
    frequencies_ghz: tuple[float, ...]
    result: SimResult

    def table(self) -> str:
        headers = ["batch"] + [f"{f:.1f}GHz" for f in self.frequencies_ghz]
        rows = [
            [str(i + 1), *[str(c) for c in hist]]
            for i, hist in enumerate(self.histograms)
        ]
        return format_table(
            headers, rows,
            title=f"Fig. 8 — cores per frequency, {self.benchmark} batches",
        )


def run_fig8(
    *,
    benchmark: str = "SHA-1",
    batches: int = 10,
    machine: Optional[MachineConfig] = None,
    seed: int = 11,
    config: Optional[EEWAConfig] = None,
    parallel: bool = False,
    workers: int | None = None,
    cache_dir: str | None = None,
) -> Fig8Result:
    """Regenerate Fig. 8's per-batch frequency histogram series.

    One EEWA scenario, one seed, through a Session. Fig. 8 is a single
    run, so ``parallel=True`` buys no fan-out — but it routes the run
    through the content-addressed result cache, making repeated
    regeneration (and sharing with other exhibits' EEWA cells) free.
    """
    spec = ScenarioSpec(
        workload=benchmark,
        policy=PolicySpec("eewa", config=config),
        machine=MachineSpec() if machine is None else MachineSpec.inline(machine),
        seeds=(seed,),
        batches=batches,
    )
    with Session.for_experiment(
        parallel=parallel, workers=workers, cache_dir=cache_dir
    ) as session:
        result = session.run_single(spec)
    machine_config = spec.build_machine()
    return Fig8Result(
        benchmark=benchmark,
        histograms=tuple(result.trace.level_histograms()),
        frequencies_ghz=tuple(f / 1e9 for f in machine_config.scale),
        result=result,
    )
