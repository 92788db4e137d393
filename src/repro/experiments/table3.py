"""Table III — execution time and adjuster overhead per benchmark.

Two overhead numbers are reported, mirroring the substitution documented in
DESIGN.md:

* **simulated** — the decision cost charged inside the simulation (the
  adjuster's overhead model), as a percentage of simulated execution time.
  Paper shape target: total overhead tens of milliseconds, always < 2% of
  execution time.
* **measured** — real Python ``perf_counter`` time of the Algorithm 1
  invocations (what pytest-benchmark exercises separately).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.scenario.spec import ScenarioSpec
from repro.workloads.benchmarks import BENCHMARK_NAMES


@dataclass(frozen=True)
class Table3Row:
    benchmark: str
    execution_ms: float
    overhead_ms: float
    overhead_pct: float
    measured_wallclock_ms: float
    decisions: int


@dataclass(frozen=True)
class Table3Result:
    rows: tuple[Table3Row, ...]

    def table(self) -> str:
        return format_table(
            ["benchmark", "exec (ms)", "overhead (ms)", "overhead %", "wallclock (ms)"],
            [
                (
                    r.benchmark,
                    r.execution_ms,
                    r.overhead_ms,
                    r.overhead_pct,
                    r.measured_wallclock_ms,
                )
                for r in self.rows
            ],
            title="Table III — execution time and adjuster overhead",
            float_fmt="{:.2f}",
        )

    def max_overhead_pct(self) -> float:
        return max(r.overhead_pct for r in self.rows)


def run_table3(
    *,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    batches: int | None = None,
    seed: int = 11,
) -> Table3Result:
    """Regenerate Table III.

    One single-seed EEWA scenario per benchmark on the paper's machine,
    run through the engine's detailed path — the per-cell outcome carries
    the adjuster wall-clock bookkeeping. The *measured* wall-clock column
    is a real timing, so unlike the simulated columns it differs from run
    to run.
    """
    with SweepEngine() as engine:
        grids = engine.run_grid_detailed(
            [
                ScenarioSpec(
                    workload=name, policy="eewa", seeds=(seed,), batches=batches
                )
                for name in benchmarks
            ]
        )
    rows = []
    for name, (outcome,) in zip(benchmarks, grids):
        result = outcome.result
        overhead = result.adjust_overhead_seconds
        rows.append(
            Table3Row(
                benchmark=name,
                execution_ms=result.total_time * 1e3,
                overhead_ms=overhead * 1e3,
                overhead_pct=100.0 * overhead / result.total_time,
                measured_wallclock_ms=outcome.adjuster_wallclock_s * 1e3,
                decisions=outcome.adjuster_decisions,
            )
        )
    return Table3Result(rows=tuple(rows))
