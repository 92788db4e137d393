"""Hypothesis property tests on the EEWA core data structures."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cc_table import build_cc_table
from repro.core.cgroups import build_cgroup_plan
from repro.core.ktuple import default_power_estimate, exhaustive_search, search_ktuple
from repro.core.preference import preference_order
from repro.core.profiler import OnlineProfiler, TaskClassStats
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import homogeneous_space

# -- strategies ---------------------------------------------------------------

scales = st.integers(min_value=2, max_value=5).flatmap(
    lambda r: st.just(
        homogeneous_space(tuple(3.0e9 * (0.7**i) for i in range(r)))
    )
)

class_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=60),  # count
        st.floats(min_value=1e-4, max_value=5e-2),  # mean seconds
    ),
    min_size=1,
    max_size=5,
)


def make_classes(raw):
    stats = [
        TaskClassStats(function=f"c{i}", count=n, mean_workload=w)
        for i, (n, w) in enumerate(raw)
    ]
    stats.sort(key=lambda c: (-c.mean_workload, c.function))
    return stats


# -- CC table -----------------------------------------------------------------


@given(scales, class_lists, st.floats(min_value=5e-3, max_value=0.5))
def test_cc_rows_scale_with_slowdown_fluid(scale, raw, ideal):
    classes = make_classes(raw)
    table = build_cc_table(classes, scale, ideal, mode="fluid")
    for j in range(scale.r):
        assert np.allclose(table.row(j), table.row(0) * scale.slowdown(j))


@given(scales, class_lists, st.floats(min_value=5e-3, max_value=0.5))
def test_discrete_dominates_fluid(scale, raw, ideal):
    """Granularity can only *increase* core demand, never reduce it —
    except for the F_0 clamp, which caps at ceil(fluid) or the task count."""
    classes = make_classes(raw)
    fluid = build_cc_table(classes, scale, ideal, mode="fluid")
    disc = build_cc_table(classes, scale, ideal, mode="discrete", headroom=0.0)
    for j in range(1, scale.r):
        for i in range(fluid.k):
            assert disc[j, i] >= fluid[j, i] - 1e-9


# -- k-tuple search -----------------------------------------------------------


@given(scales, class_lists, st.integers(min_value=1, max_value=64))
@settings(max_examples=150)
def test_ktuple_feasibility_and_monotonicity(scale, raw, cores):
    classes = make_classes(raw)
    table = build_cc_table(classes, scale, ideal_time=0.05, mode="fluid")
    solution = search_ktuple(table, cores)
    if solution is None:
        # Infeasible means even all-fastest overflows.
        assert table.fastest_row_total() > cores
    else:
        assert solution.total_cores <= cores + 1e-6
        assert solution.is_monotone()


@given(scales, class_lists, st.integers(min_value=1, max_value=40))
@settings(max_examples=80)
def test_backtracking_agrees_with_exhaustive_on_feasibility(scale, raw, cores):
    classes = make_classes(raw)
    table = build_cc_table(classes, scale, ideal_time=0.05, mode="fluid")
    bt = search_ktuple(table, cores)
    ex = exhaustive_search(table, cores)
    assert (bt is None) == (ex is None)
    if bt is not None and ex is not None:
        estimate = default_power_estimate(table, cores)
        assert estimate(ex) <= estimate(bt) + 1e-9


# -- c-groups -----------------------------------------------------------------


@given(scales, class_lists, st.integers(min_value=2, max_value=64))
@settings(max_examples=100)
def test_cgroup_plan_partitions_cores(scale, raw, cores):
    classes = make_classes(raw)
    table = build_cc_table(classes, scale, ideal_time=0.05, mode="fluid")
    solution = search_ktuple(table, cores)
    assume(solution is not None)
    plan = build_cgroup_plan(solution, table, cores)
    # Every core in exactly one group; levels consistent; classes mapped.
    seen = sorted(cid for g in plan.groups for cid in g.core_ids)
    assert seen == list(range(cores))
    assert len(plan.core_levels) == cores
    for g in plan.groups:
        for cid in g.core_ids:
            assert plan.core_levels[cid] == g.level
            assert plan.group_of_core[cid] == g.index
    assert set(plan.class_to_group) == set(table.class_names)
    assert all(0 <= g < plan.num_groups for g in plan.class_to_group.values())
    # Groups are fastest-first.
    levels = [g.level for g in plan.groups]
    assert levels == sorted(levels)


# -- preference lists ---------------------------------------------------------


@given(st.integers(min_value=1, max_value=12))
def test_preference_orders_partition(u):
    for i in range(u):
        order = preference_order(i, u)
        assert sorted(order) == list(range(u))
        assert order[0] == i
        weaker = [g for g in order if g > i]
        assert weaker == sorted(weaker)
        stronger = [g for g in order if g < i]
        assert stronger == sorted(stronger, reverse=True)


# -- profiler -----------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=1e-6, max_value=1.0),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_profiler_mean_matches_batch_mean(observations):
    profiler = OnlineProfiler(scale=opteron_8380_scale())
    for fn, t, level in observations:
        profiler.observe(fn, t, level)
    # Recompute per-class means directly and compare.
    scale = opteron_8380_scale()
    for fn in {o[0] for o in observations}:
        ws = [t * scale.relative_speed(lv) for f, t, lv in observations if f == fn]
        stats = profiler.get_class(fn)
        assert stats.count == len(ws)
        assert math.isclose(stats.mean_workload, sum(ws) / len(ws), rel_tol=1e-9)
    total = sum(c.total_workload for c in profiler.classes_by_workload())
    everything = [
        t * scale.relative_speed(lv) for _, t, lv in observations
    ]
    assert math.isclose(total, sum(everything), rel_tol=1e-9)
