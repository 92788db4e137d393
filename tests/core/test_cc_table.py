"""Tests for CC table construction (Table I)."""

import numpy as np
import pytest

from repro.core.cc_table import CCTable, build_cc_table, cc_table_from_values
from repro.core.profiler import TaskClassStats
from repro.errors import SearchError
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import homogeneous_space
from repro.machine.topology import big_little_test_machine


def stats(name: str, count: int, mean: float) -> TaskClassStats:
    return TaskClassStats(function=name, count=count, mean_workload=mean)


class TestFluidTable:
    def test_fastest_row_formula(self):
        """CC[0][i] = n_i * w_i / T."""
        scale = opteron_8380_scale()
        table = build_cc_table(
            [stats("a", 10, 0.02), stats("b", 20, 0.005)], scale, ideal_time=0.05
        )
        assert table[0, 0] == pytest.approx(10 * 0.02 / 0.05)
        assert table[0, 1] == pytest.approx(20 * 0.005 / 0.05)

    def test_row_scaling_formula(self):
        """CC[j][i] = (F_0 / F_j) * CC[0][i] — Table I exactly."""
        scale = opteron_8380_scale()
        table = build_cc_table([stats("a", 8, 0.01)], scale, ideal_time=0.04)
        for j in range(scale.r):
            assert table[j, 0] == pytest.approx(scale.slowdown(j) * table[0, 0])

    def test_rows_increase_down_the_table(self):
        scale = opteron_8380_scale()
        table = build_cc_table([stats("a", 8, 0.01)], scale, ideal_time=0.04)
        col = table.column(0)
        assert all(col[j] < col[j + 1] for j in range(scale.r - 1))

    def test_unsorted_classes_rejected(self):
        scale = opteron_8380_scale()
        with pytest.raises(SearchError):
            build_cc_table(
                [stats("light", 10, 0.001), stats("heavy", 10, 0.1)],
                scale,
                ideal_time=0.05,
            )

    def test_empty_classes_rejected(self):
        with pytest.raises(SearchError):
            build_cc_table([], opteron_8380_scale(), ideal_time=1.0)

    def test_nonpositive_ideal_time_rejected(self):
        with pytest.raises(SearchError):
            build_cc_table([stats("a", 1, 0.1)], opteron_8380_scale(), ideal_time=0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(SearchError):
            build_cc_table(
                [stats("a", 1, 0.1)], opteron_8380_scale(), 1.0, mode="quantum"
            )


class TestDiscreteTable:
    def test_matches_fluid_for_fine_tasks(self):
        """Many tiny tasks: discrete demand is within one core of fluid."""
        scale = opteron_8380_scale()
        classes = [stats("a", 1000, 0.0001)]
        fluid = build_cc_table(classes, scale, ideal_time=0.05, mode="fluid")
        disc = build_cc_table(
            classes, scale, ideal_time=0.05, mode="discrete", headroom=0.0
        )
        for j in range(scale.r):
            assert disc[j, 0] >= fluid[j, 0] - 1e-9
            assert disc[j, 0] <= np.ceil(fluid[j, 0]) + 1.0

    def test_granularity_binds_coarse_tasks(self):
        """A class of 8 near-T tasks needs 8 cores, not the fluid count."""
        scale = opteron_8380_scale()
        table = build_cc_table(
            [stats("a", 8, 0.04)], scale, ideal_time=0.05, mode="discrete", headroom=0.0
        )
        assert table[0, 0] == pytest.approx(8.0)  # one task per core

    def test_infeasible_levels_are_inf(self):
        """A level where one task exceeds T is unusable."""
        scale = opteron_8380_scale()
        table = build_cc_table(
            [stats("a", 4, 0.04)], scale, ideal_time=0.05, mode="discrete", headroom=0.0
        )
        # At 0.8 GHz the task takes 0.04 * 2.5/0.8 = 0.125 > 0.05.
        assert np.isinf(table[3, 0])

    def test_headroom_tightens_feasibility(self):
        scale = opteron_8380_scale()
        # Task of 0.039 at F_1 takes 0.0542 < 0.06 — feasible without
        # headroom, rejected with 15% headroom (0.0623 > 0.06).
        loose = build_cc_table(
            [stats("a", 4, 0.039)], scale, 0.06, mode="discrete", headroom=0.0
        )
        tight = build_cc_table(
            [stats("a", 4, 0.039)], scale, 0.06, mode="discrete", headroom=0.15
        )
        assert np.isfinite(loose[1, 0])
        assert np.isinf(tight[1, 0])

    def test_f0_row_clamped_when_class_outgrows_t(self):
        """A class that no longer fits T even at F_0 stays schedulable."""
        scale = opteron_8380_scale()
        table = build_cc_table(
            [stats("a", 4, 0.08)], scale, ideal_time=0.05, mode="discrete"
        )
        assert np.isfinite(table[0, 0])
        assert table[0, 0] <= 4  # never more cores than tasks
        assert np.isinf(table[1, 0])

    def test_zero_count_class_demands_no_cores(self):
        """A class seen zero times this batch must not reserve capacity."""
        scale = opteron_8380_scale()
        table = build_cc_table(
            [stats("a", 4, 0.01), stats("b", 0, 0.005)],
            scale,
            ideal_time=0.05,
            mode="discrete",
        )
        assert all(table.column(1) == 0.0)

    def test_zero_workload_class_demands_no_cores(self):
        """Zero mean workload hits the task_time <= 0 branch, not a 0/0."""
        scale = opteron_8380_scale()
        for mode in ("fluid", "discrete"):
            table = build_cc_table(
                [stats("a", 4, 0.01), stats("b", 3, 0.0)],
                scale,
                ideal_time=0.05,
                mode=mode,
            )
            assert all(table.column(1) == 0.0)

    def test_zero_headroom_accepts_an_exact_fit(self):
        """headroom=0 is the boundary: a task taking exactly T is feasible."""
        scale = homogeneous_space((2.0e9, 1.0e9))
        table = build_cc_table(
            [stats("a", 6, 0.05)],
            scale,
            ideal_time=0.05,
            mode="discrete",
            headroom=0.0,
        )
        assert table[0, 0] == pytest.approx(6.0)  # one task per core
        assert np.isinf(table[1, 0])  # at half speed it no longer fits

    def test_negative_headroom_rejected(self):
        with pytest.raises(SearchError):
            build_cc_table(
                [stats("a", 1, 0.01)],
                opteron_8380_scale(),
                1.0,
                mode="discrete",
                headroom=-0.1,
            )


class TestDirectConstruction:
    def test_from_values(self):
        scale = homogeneous_space((2.0e9, 1.0e9))
        table = cc_table_from_values([[1.0, 2.0], [2.0, 4.0]], scale)
        assert table.k == 2 and table.r == 2
        assert table.class_names == ("TC0", "TC1")
        assert table.fastest_row_total() == pytest.approx(3.0)

    def test_shape_validation(self):
        scale = homogeneous_space((2.0e9, 1.0e9))
        with pytest.raises(SearchError):
            cc_table_from_values([[1.0, 2.0]], scale)  # 1 row for 2 levels
        with pytest.raises(SearchError):
            CCTable(
                scale=scale,
                class_names=("a",),
                values=np.array([[-1.0], [1.0]]),
                ideal_time=1.0,
            )


class TestNonUniformLadders:
    """CC tables over single-level and merged heterogeneous ladders."""

    def test_single_level_ladder(self):
        scale = homogeneous_space((2.0e9,))
        table = build_cc_table([stats("a", 10, 0.02)], scale, ideal_time=0.05)
        assert table.values.shape == (1, 1)
        assert table[0, 0] == pytest.approx(10 * 0.02 / 0.05)
        discrete = build_cc_table(
            [stats("a", 10, 0.02)], scale, ideal_time=0.05,
            mode="discrete", headroom=0.0,
        )
        # 0.05/0.02 → 2 tasks per core, ceil(10/2) = 5 cores.
        assert discrete[0, 0] == 5.0

    def test_big_little_fluid_table_pinned(self):
        """|OP| x k shape with exact dyadic values on the merged ladder."""
        scale = big_little_test_machine().scale
        table = build_cc_table(
            [stats("heavy", 3, 0.25), stats("light", 8, 0.0625)],
            scale,
            ideal_time=1.0,
        )
        assert table.values.shape == (scale.r, 2) == (8, 2)
        # Rows scale by *effective* slowdown [1,2,4,4,8,8,16,32]; the
        # machine is dyadic so every entry is exact.
        assert np.array_equal(
            table.column(0), [0.75, 1.5, 3.0, 3.0, 6.0, 6.0, 12.0, 24.0]
        )
        assert np.array_equal(
            table.column(1), [0.5, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 16.0]
        )

    def test_big_little_tied_operating_points_have_equal_rows(self):
        # big@2^29 and little@2^30 retire equally fast: identical demand.
        scale = big_little_test_machine().scale
        table = build_cc_table([stats("a", 5, 0.125)], scale, ideal_time=1.0)
        assert np.array_equal(table.row(2), table.row(3))

    def test_big_little_discrete_table_pinned(self):
        scale = big_little_test_machine().scale
        table = build_cc_table(
            [stats("a", 6, 0.25)], scale, ideal_time=1.0,
            mode="discrete", headroom=0.0,
        )
        # Per-task time at op j is 0.25 * slowdown(j); ops slower than the
        # budget (2s and beyond) are infeasible for this class.
        assert np.array_equal(
            table.column(0), [2.0, 3.0, 6.0, 6.0] + [np.inf] * 4
        )

    def test_fluid_entries_can_be_non_integral(self):
        scale = big_little_test_machine().scale
        table = build_cc_table([stats("a", 3, 0.25)], scale, ideal_time=1.0)
        assert table[0, 0] == 0.75
        assert not float(table[0, 0]).is_integer()
