"""Table III bench — adjuster overhead per benchmark, plus a real
micro-benchmark of Algorithm 1 itself.

Paper shape targets: overhead below 2% of execution time for every
benchmark and tens of milliseconds in absolute terms across a run.
The micro-benchmark measures the genuine Python wall time of the
backtracking search on the paper's own Fig. 3 table — this is the number
pytest-benchmark actually statistics.
"""

from conftest import save_exhibit

from repro.core.cc_table import cc_table_from_values
from repro.core.ktuple import search_ktuple
from repro.experiments.table3 import run_table3
from repro.machine.frequency import opteron_8380_scale

FIG3_VALUES = [
    [2, 3, 1, 1],
    [4, 6, 2, 2],
    [6, 9, 3, 3],
    [8, 12, 4, 4],
]


def test_bench_table3(benchmark, results_dir):
    result = benchmark.pedantic(lambda: run_table3(), rounds=1, iterations=1)
    save_exhibit(results_dir, "table3", result.table())

    benchmark.extra_info["overhead_pct"] = {
        r.benchmark: round(r.overhead_pct, 2) for r in result.rows
    }
    assert result.max_overhead_pct() < 2.0
    for row in result.rows:
        assert row.overhead_ms < 100.0  # paper: "less than 100ms"
        assert row.execution_ms > 0


def test_bench_algorithm1_search(benchmark):
    """Raw speed of the backtracking search on the paper's Fig. 3 table."""
    table = cc_table_from_values(FIG3_VALUES, opteron_8380_scale())
    solution = benchmark(search_ktuple, table, 16)
    assert solution.assignment == (1, 1, 2, 2)


def test_bench_algorithm1_scaling(benchmark):
    """Search cost on a larger table (8 classes, 6 levels) stays trivial —
    the paper's scalability argument for the O(k*r^2) bound."""
    import numpy as np

    from repro.machine.operating_point import homogeneous_space

    scale = homogeneous_space(tuple(3.0e9 * 0.8**i for i in range(6)))
    rng = np.random.default_rng(0)
    row0 = rng.uniform(0.5, 3.0, size=8)
    values = np.outer([scale.slowdown(j) for j in range(6)], row0)
    table = cc_table_from_values(values, scale)
    solution = benchmark(search_ktuple, table, 24)
    assert solution is not None
