"""Fig. 8 — cores per frequency across the 10 batches of SHA-1.

Paper shape targets: batch 1 runs all 16 cores at the top frequency
(profiling); from batch 2 on, a handful of cores stay fast (the paper shows
5 at 2.5 GHz) while the majority drop to the lowest frequency (11 at
0.8 GHz), and the configuration is stable across batches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.spec import ScenarioSpec
from repro.sim.record import CellResult


@dataclass(frozen=True)
class Fig8Result:
    benchmark: str
    #: per-batch (cores at F0, F1, ..., F_{r-1})
    histograms: tuple[tuple[int, ...], ...]
    frequencies_ghz: tuple[float, ...]
    result: CellResult

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
    *, benchmark: str = "SHA-1", batches: int = 10, seed: int = 11
) -> Fig8Result:
    """Regenerate Fig. 8's per-batch frequency histogram series.

    One EEWA scenario on the paper's machine, one seed, on a SweepEngine.
    """
    spec = ScenarioSpec(
        workload=benchmark, policy="eewa", seeds=(seed,), batches=batches
    )
    with SweepEngine() as engine:
        result = engine.run_single(spec)
    return Fig8Result(
        benchmark=benchmark,
        histograms=tuple(result.trace.level_histograms()),
        frequencies_ghz=tuple(f / 1e9 for f in spec.build_machine().scale),
        result=result,
    )
