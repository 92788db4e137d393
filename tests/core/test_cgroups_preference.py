"""Tests for c-group assembly and preference lists."""

import pytest

from repro.core.cc_table import cc_table_from_values
from repro.core.cgroups import build_cgroup_plan, uniform_plan
from repro.core.ktuple import search_ktuple
from repro.core.preference import preference_lists, preference_order
from repro.errors import SchedulingError, SearchError
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import homogeneous_space

FIG3_VALUES = [
    [2, 3, 1, 1],
    [4, 6, 2, 2],
    [6, 9, 3, 3],
    [8, 12, 4, 4],
]


def fig3_plan(num_cores=16, leftover="slowest"):
    table = cc_table_from_values(FIG3_VALUES, opteron_8380_scale())
    solution = search_ktuple(table, num_cores)
    return build_cgroup_plan(solution, table, num_cores, leftover_policy=leftover)


class TestCGroupPlan:
    def test_fig3_layout(self):
        """(1,1,2,2) on 16 cores -> 10 cores at F1, 6 at F2, fastest first."""
        plan = fig3_plan()
        assert plan.level_histogram(4) == (0, 10, 6, 0)
        assert plan.num_groups == 2
        assert plan.groups[0].level == 1 and len(plan.groups[0]) == 10
        assert plan.groups[1].level == 2 and len(plan.groups[1]) == 6

    def test_class_to_group_follows_tuple(self):
        plan = fig3_plan()
        assert plan.class_to_group["TC0"] == 0
        assert plan.class_to_group["TC1"] == 0
        assert plan.class_to_group["TC2"] == 1
        assert plan.class_to_group["TC3"] == 1

    def test_core_ids_dense_and_consistent(self):
        plan = fig3_plan()
        all_ids = [cid for g in plan.groups for cid in g.core_ids]
        assert sorted(all_ids) == list(range(16))
        for g in plan.groups:
            for cid in g.core_ids:
                assert plan.group_of_core[cid] == g.index
                assert plan.core_levels[cid] == g.level

    @staticmethod
    def _slack_plan(leftover: str):
        """A one-class table whose best tuple leaves one core unclaimed:
        demand 7 at F2 on an 8-core machine (F3 would need 11)."""
        table = cc_table_from_values(
            [[3.0], [5.0], [7.0], [11.0]], opteron_8380_scale()
        )
        solution = search_ktuple(table, 8)
        assert solution.assignment == (2,)
        return build_cgroup_plan(solution, table, 8, leftover_policy=leftover)

    def test_leftover_parks_on_slowest(self):
        """Extra cores beyond the tuple demand go to F_{r-1} — the Fig. 8
        behaviour (majority of cores at the lowest frequency)."""
        plan = self._slack_plan("slowest")
        assert plan.level_histogram(4) == (0, 0, 7, 1)

    def test_leftover_policy_fastest(self):
        plan = self._slack_plan("fastest")
        assert plan.level_histogram(4) == (1, 0, 7, 0)

    def test_leftover_policy_join_slowest_group(self):
        plan = self._slack_plan("join_slowest_group")
        assert plan.level_histogram(4) == (0, 0, 8, 0)

    def test_unknown_leftover_policy_rejected(self):
        table = cc_table_from_values(FIG3_VALUES, opteron_8380_scale())
        solution = search_ktuple(table, 16)
        with pytest.raises(SearchError):
            build_cgroup_plan(solution, table, 16, leftover_policy="random")

    def test_rounding_overflow_merges_groups(self):
        """Three levels each demanding ~0.5 cores on a 2-core machine must
        merge rather than over-allocate."""
        scale = homogeneous_space((4.0e9, 2.0e9, 1.0e9))
        table = cc_table_from_values(
            [[0.4, 0.4, 0.4], [0.8, 0.8, 0.8], [1.6, 1.6, 1.6]], scale
        )
        solution = search_ktuple(table, 2)
        plan = build_cgroup_plan(solution, table, 2)
        assert sum(plan.level_histogram(3)) == 2

    def test_uniform_plan(self):
        plan = uniform_plan(4, level=0, class_names=("a", "b"))
        assert plan.level_histogram(2) == (4, 0)
        assert plan.num_groups == 1
        assert plan.class_to_group == {"a": 0, "b": 0}


class TestPreferenceLists:
    def test_paper_order(self):
        """{G_i, G_{i+1}, ..., G_{u-1}, G_{i-1}, ..., G_0} (Fig. 5)."""
        assert preference_order(0, 4) == (0, 1, 2, 3)
        assert preference_order(1, 4) == (1, 2, 3, 0)
        assert preference_order(2, 4) == (2, 3, 1, 0)
        assert preference_order(3, 4) == (3, 2, 1, 0)

    def test_own_group_always_first(self):
        for u in range(1, 8):
            for i in range(u):
                assert preference_order(i, u)[0] == i

    def test_weaker_before_stronger(self):
        order = preference_order(2, 6)
        weaker = [g for g in order if g > 2]
        stronger = [g for g in order if g < 2]
        assert order.index(weaker[-1]) < order.index(stronger[0])

    def test_stronger_nearest_first(self):
        order = preference_order(3, 5)
        stronger = [g for g in order if g < 3]
        assert stronger == [2, 1, 0]

    def test_permutation_property(self):
        for u in range(1, 10):
            for i in range(u):
                assert sorted(preference_order(i, u)) == list(range(u))

    def test_preference_lists_per_group(self):
        lists = preference_lists(3)
        assert len(lists) == 3
        assert lists[1] == (1, 2, 0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SchedulingError):
            preference_order(0, 0)
        with pytest.raises(SchedulingError):
            preference_order(3, 3)
