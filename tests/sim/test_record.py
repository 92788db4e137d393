"""A cell record reads exactly like the full result it was built from.

For every golden cell (the 30 jittered cells and the 8 long-horizon
cells), the trace fingerprint and every export give equal output on a
``SimResult`` and on ``CellResult.from_sim`` of it. This is what lets the
sweep engine cache and return records instead of full results without
moving a golden hash.
"""

import functools
import pathlib
import pickle
import sys

import pytest

from repro.machine.topology import opteron_8380_machine
from repro.scenario.registry import POLICIES
from repro.sim.engine import simulate
from repro.sim.export import (
    batches_to_csv,
    result_to_dict,
    tasks_to_csv,
    transitions_to_csv,
)
from repro.sim.fingerprint import trace_fingerprint
from repro.sim.record import CellResult, TaskRecord
from repro.workloads.benchmarks import benchmark_program

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import golden_gen  # noqa: E402
import golden_longhorizon_gen as longhorizon_gen  # noqa: E402


def golden(benchmark, policy, seed):
    """A golden cell's full result, built the way ``golden_gen`` builds it."""
    if benchmark == "spawn-tree":
        program = golden_gen.spawn_program()
    else:
        program = benchmark_program(
            benchmark, batches=golden_gen.GOLDEN_BATCHES, seed=seed
        )
    core_levels = golden_gen.WATS_LEVELS_16 if policy == "wats" else None
    return simulate(
        program, POLICIES.get(policy).build(core_levels=core_levels),
        opteron_8380_machine(), seed=seed,
    )


def longhorizon(policy, seed):
    """A long-horizon cell's full result (fast-forward on)."""
    return simulate(
        longhorizon_gen.periodic_program(longhorizon_gen.BATCHES, 4, 8),
        longhorizon_gen.build_policy(policy),
        longhorizon_gen.dyadic_test_machine(num_cores=8),
        seed=seed,
    )


CELLS = [(golden, cell) for cell in golden_gen.cells()] + [
    (longhorizon, cell) for cell in longhorizon_gen.cells()
]

READERS = {
    "trace_fingerprint": trace_fingerprint,
    "result_to_dict": functools.partial(result_to_dict, include_tasks=True),
    "batches_to_csv": batches_to_csv,
    "tasks_to_csv": tasks_to_csv,
    "transitions_to_csv": transitions_to_csv,
}


@pytest.mark.parametrize(
    "run,cell", CELLS,
    ids=[f"{run.__name__}-{'-'.join(map(str, cell))}" for run, cell in CELLS],
)
def test_record_reads_like_its_result(run, cell):
    result = run(*cell)
    record = CellResult.from_sim(result)
    for name, read in READERS.items():
        assert read(record) == read(result), name


def test_task_rows_read_back_as_task_records():
    result = golden("SHA-1", "eewa", 11)
    record = pickle.loads(pickle.dumps(CellResult.from_sim(result)))
    assert all(type(row) is tuple for row in record.task_rows)
    assert record.tasks == [
        TaskRecord(
            t.task_id, t.function, t.batch_index, t.stolen, t.start_time,
            t.finish_time, t.executed_on, t.executed_level,
        )
        for t in result.tasks
    ]
    assert record.average_power == result.average_power
