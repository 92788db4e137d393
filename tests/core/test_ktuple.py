"""Tests for the k-tuple search (Algorithm 1) and the exhaustive yardstick."""

import pytest

from repro.core.cc_table import cc_table_from_values
from repro.core.ktuple import (
    KTupleSolution,
    default_power_estimate,
    exhaustive_search,
    power_model_estimate,
    search_ktuple,
)
from repro.errors import SearchError
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import homogeneous_space
from repro.machine.power import calibrated_power_model

#: The exact CC table of the paper's Fig. 3.
FIG3_VALUES = [
    [2, 3, 1, 1],
    [4, 6, 2, 2],
    [6, 9, 3, 3],
    [8, 12, 4, 4],
]


def fig3_table():
    return cc_table_from_values(FIG3_VALUES, opteron_8380_scale())


class TestPaperExample:
    def test_fig3_yields_the_papers_tuple(self):
        """Algorithm 1 on Fig. 3's table with 16 cores returns (1, 1, 2, 2)."""
        solution = search_ktuple(fig3_table(), num_cores=16)
        assert solution is not None
        assert solution.assignment == (1, 1, 2, 2)

    def test_fig3_core_accounting(self):
        """Paper: '10 cores should run at F_1, and 6 cores at F_2'."""
        solution = search_ktuple(fig3_table(), num_cores=16)
        demand = solution.demand_by_level()
        assert demand[1] == pytest.approx(10.0)
        assert demand[2] == pytest.approx(6.0)
        assert solution.total_cores == pytest.approx(16.0)


class TestConstraints:
    def test_capacity_constraint_respected(self):
        for m in (4, 7, 16, 30):
            solution = search_ktuple(fig3_table(), num_cores=m)
            if solution is not None:
                assert solution.total_cores <= m + 1e-9

    def test_monotonicity_constraint(self):
        for m in (7, 10, 16, 24):
            solution = search_ktuple(fig3_table(), num_cores=m)
            if solution is not None:
                assert solution.is_monotone()

    def test_infeasible_returns_none(self):
        # Even the all-fastest row needs 7 cores; 5 cannot fit.
        assert search_ktuple(fig3_table(), num_cores=5) is None

    def test_trivially_feasible_prefers_slow(self):
        # With unlimited cores, everything lands on the slowest level.
        solution = search_ktuple(fig3_table(), num_cores=1000)
        assert solution.assignment == (3, 3, 3, 3)

    def test_single_class(self):
        scale = homogeneous_space((2.0e9, 1.0e9))
        table = cc_table_from_values([[2.0], [4.0]], scale)
        assert search_ktuple(table, num_cores=4).assignment == (1,)
        assert search_ktuple(table, num_cores=3).assignment == (0,)
        assert search_ktuple(table, num_cores=1) is None

    def test_invalid_core_count_rejected(self):
        with pytest.raises(SearchError):
            search_ktuple(fig3_table(), num_cores=0)


class TestExhaustive:
    def test_exhaustive_is_feasible_and_monotone(self):
        solution = exhaustive_search(fig3_table(), num_cores=16)
        assert solution is not None
        assert solution.total_cores <= 16
        assert solution.is_monotone()

    def test_exhaustive_never_worse_than_backtracking(self):
        """The yardstick property behind the paper's 'near-optimal' claim."""
        table = fig3_table()
        estimate = default_power_estimate(table)
        for m in (7, 9, 12, 16, 20):
            bt = search_ktuple(table, m)
            ex = exhaustive_search(table, m)
            assert (bt is None) == (ex is None)
            if bt is not None:
                assert estimate(ex) <= estimate(bt) + 1e-12

    def test_power_model_estimate_orders_solutions(self):
        table = fig3_table()
        power = calibrated_power_model(opteron_8380_scale())
        estimate = power_model_estimate(table, power, num_cores=16)
        fast = KTupleSolution(assignment=(0, 0, 0, 0), core_demand=(2, 3, 1, 1))
        slow = KTupleSolution(assignment=(1, 1, 2, 2), core_demand=(4, 6, 3, 3))
        # The slow solution uses more cores but far less power per core,
        # and leaves no cores spinning at the slowest level; charging the
        # leftover cores makes the estimate prefer it (EEWA's whole point).
        assert estimate(slow) < estimate(fast)

    def test_exhaustive_infeasible_returns_none(self):
        assert exhaustive_search(fig3_table(), num_cores=5) is None

    def test_exact_tie_prefers_the_slower_tuple(self):
        # Dyadic ladder (relative speeds 1, 1/2, 1/4) with CC column
        # [1, 9, 100] on 9 cores: (0,) costs 1 + 8 * (1/4)^3 = 1.125 and
        # (1,) costs 9 * (1/2)^3 = 1.125 — exactly equal in binary floats
        # — while (2,) does not fit. The energy-priority tie-break must
        # pick the slower assignment, not the first one enumerated.
        scale = homogeneous_space((2.0e9, 1.0e9, 0.5e9))
        table = cc_table_from_values([[1.0], [9.0], [100.0]], scale)
        solution = exhaustive_search(table, num_cores=9)
        assert solution is not None
        assert solution.assignment == (1,)


class TestSolutionViews:
    def test_levels_used(self):
        s = KTupleSolution(assignment=(0, 2, 2), core_demand=(1.0, 2.0, 3.0))
        assert s.levels_used == (0, 2)
        assert s.demand_by_level() == {0: 1.0, 2: 5.0}
