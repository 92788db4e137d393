"""The adjuster's CC table and k-tuple searches on plain Python floats.

``build_cc_table``, ``search_ktuple`` and ``exhaustive_search`` once ran on
NumPy arrays. The NumPy versions are kept here as the reference: on drawn
class sets, in both CC modes, on homogeneous and big.LITTLE machines, the
plain-float table must equal them entry for entry (bit for bit, ``inf``
included), and both searches must return the same tuples and demands.
"""

import itertools
from typing import Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cc_table import CC_MODES, build_cc_table, cc_table_from_values
from repro.core.ktuple import (
    KTupleSolution,
    _capacity_layout,
    default_power_estimate,
    exhaustive_search,
    search_ktuple,
)
from repro.core.profiler import TaskClassStats
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import homogeneous_space
from repro.machine.topology import big_little_test_machine

# -- the NumPy reference -----------------------------------------------------


def numpy_cc_values(classes, scale, ideal_time, mode, headroom) -> np.ndarray:
    """``build_cc_table``'s NumPy arithmetic, as it was."""
    totals = np.array([c.total_workload for c in classes], dtype=np.float64)
    fastest_row = totals / ideal_time
    slowdowns = np.array([scale.slowdown(j) for j in range(scale.r)], dtype=np.float64)
    values = np.outer(slowdowns, fastest_row)
    if mode == "discrete":
        counts = np.array([c.count for c in classes], dtype=np.float64)
        means = np.array([c.mean_workload for c in classes], dtype=np.float64)
        for j in range(scale.r):
            task_time = means * slowdowns[j]
            with np.errstate(divide="ignore"):
                per_core = np.floor(
                    ideal_time / np.maximum(task_time * (1.0 + headroom), 1e-300)
                )
            for i in range(len(classes)):
                if task_time[i] <= 0:
                    values[j, i] = 0.0
                elif task_time[i] * (1.0 + headroom) > ideal_time:
                    values[j, i] = np.inf
                else:
                    values[j, i] = np.ceil(counts[i] / per_core[i])
        for i in range(len(classes)):
            if not np.isfinite(values[0, i]):
                values[0, i] = min(
                    float(np.ceil(fastest_row[i])), float(max(1, counts[i]))
                )
    return values


def numpy_search(table, cc: np.ndarray, num_cores, capacities) -> Optional[KTupleSolution]:
    """Algorithm 1 indexing a NumPy array, as it was."""
    bucket_of_row, budgets = _capacity_layout(table, num_cores, capacities)
    a = [0] * table.k
    used = [0.0] * len(budgets)

    def search(i: int) -> bool:
        if i >= len(a):
            return True
        lower = a[i - 1] if i > 0 else 0
        for j in range(table.r - 1, lower - 1, -1):
            b = bucket_of_row[j]
            if cc[j, i] + used[b] <= budgets[b] + 1e-9:
                a[i] = j
                used[b] += cc[j, i]
                if search(i + 1):
                    return True
                used[bucket_of_row[a[i]]] -= cc[a[i], i]
        return False

    if not search(0):
        return None
    assignment = tuple(a)
    return KTupleSolution(assignment, tuple(float(cc[j, i]) for i, j in enumerate(assignment)))


def numpy_exhaustive(table, cc: np.ndarray, num_cores, capacities) -> Optional[KTupleSolution]:
    """The exhaustive search indexing a NumPy array, as it was."""
    bucket_of_row, budgets = _capacity_layout(table, num_cores, capacities)
    estimate = default_power_estimate(table, num_cores, capacities=capacities)
    best, best_score = None, float("inf")
    for combo in itertools.combinations_with_replacement(range(table.r), table.k):
        demand = [float(cc[j, i]) for i, j in enumerate(combo)]
        used = [0.0] * len(budgets)
        for j, d in zip(combo, demand):
            used[bucket_of_row[j]] += d
        if any(u > b + 1e-9 for u, b in zip(used, budgets)):
            continue
        candidate = KTupleSolution(assignment=combo, core_demand=tuple(demand))
        score = estimate(candidate)
        if score < best_score - 1e-15 or (best is not None and score == best_score):
            best, best_score = candidate, score
    return best


# -- drawn inputs ------------------------------------------------------------

OPTERON = opteron_8380_scale()
BIG_LITTLE = big_little_test_machine()


@st.composite
def adjuster_inputs(draw):
    """Heaviest-first classes, a mode, and a machine with its capacities."""
    k = draw(st.integers(1, 4))
    means = sorted(
        draw(st.lists(
            st.floats(0.0, 0.3, allow_subnormal=False) | st.just(0.0),
            min_size=k, max_size=k,
        )),
        reverse=True,
    )
    classes = [
        TaskClassStats(function=f"c{i}", count=draw(st.integers(0, 80)), mean_workload=w)
        for i, w in enumerate(means)
    ]
    ideal_time = draw(st.floats(1e-3, 0.5))
    mode = draw(st.sampled_from(CC_MODES))
    headroom = draw(st.sampled_from([0.0, 0.1]) | st.floats(0.0, 0.5))
    if draw(st.booleans()):
        scale = OPTERON
        num_cores = draw(st.integers(1, 32))
        capacities = draw(st.sampled_from([None, ((OPTERON.types[0], num_cores),)]))
    else:
        scale = BIG_LITTLE.scale
        big = draw(st.integers(1, 8))
        little = draw(st.integers(1, 8))
        num_cores = big + little
        capacities = (("big", big), ("little", little))
    return classes, ideal_time, mode, headroom, scale, num_cores, capacities


def bits(rows):
    return [[float(v).hex() for v in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(adjuster_inputs())
def test_plain_float_table_and_searches_equal_numpy(inputs):
    classes, ideal_time, mode, headroom, scale, num_cores, capacities = inputs
    table = build_cc_table(classes, scale, ideal_time, mode=mode, headroom=headroom)
    reference = numpy_cc_values(classes, scale, ideal_time, mode, headroom)

    assert all(type(v) is float for row in table.rows for v in row)
    assert bits(table.rows) == bits(reference.tolist())
    assert np.array_equal(table.values, reference)
    assert table.fastest_row_total() == float(reference[0, :].sum())

    assert search_ktuple(table, num_cores, capacities=capacities) == numpy_search(
        table, reference, num_cores, capacities
    )
    assert exhaustive_search(table, num_cores, capacities=capacities) == numpy_exhaustive(
        table, reference, num_cores, capacities
    )


def test_inf_entries_and_the_f0_clamp_match():
    # One class outgrows T even at F_0 (clamped), one fits only fast levels.
    classes = [
        TaskClassStats(function="huge", count=3, mean_workload=0.08),
        TaskClassStats(function="mid", count=5, mean_workload=0.02),
    ]
    table = build_cc_table(classes, OPTERON, 0.05, mode="discrete")
    reference = numpy_cc_values(classes, OPTERON, 0.05, "discrete", 0.1)
    assert bits(table.rows) == bits(reference.tolist())
    inf = float("inf")
    assert table.rows == ((3.0, 3.0), (inf, 5.0), (inf, 5.0), (inf, inf))


def test_values_row_and_column_are_fresh_float_arrays():
    table = cc_table_from_values([[1.0, 2.0], [2.0, np.inf]], homogeneous_space((2.0e9, 1.0e9)))
    assert table.rows == ((1.0, 2.0), (2.0, float("inf")))
    values = table.values
    assert values.dtype == np.float64 and values.shape == (2, 2)
    values[0, 0] = 99.0  # a reader's copy: the table is unchanged
    assert table[0, 0] == 1.0
    assert list(table.row(1)) == [2.0, np.inf]
    assert list(table.column(0)) == [1.0, 2.0]
