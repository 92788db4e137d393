"""Tests for the experiment modules (reduced-size runs of every exhibit)."""

import math

import pytest

from repro.experiments.fig1 import analytic_schedules, fig1_rows, run_fig1
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig_hetero import run_fig_hetero
from repro.experiments.report import format_percent, format_series, format_table
from repro.experiments.table3 import run_table3
from repro.errors import ConfigurationError
from repro.experiments.sweep import SweepEngine
from repro.scenario import POLICIES, ScenarioSpec

SEEDS = (11,)


class TestRunner:
    def test_make_policy_names(self):
        assert POLICIES.get("cilk").build().name == "cilk"
        assert POLICIES.get("cilk-d").build().name == "cilk-d"
        assert POLICIES.get("eewa").build().name == "eewa"
        assert POLICIES.get("wats").build(core_levels=[0, 1]).name == "wats"

    def test_make_policy_validation(self):
        with pytest.raises(ConfigurationError):
            POLICIES.get("rr")
        with pytest.raises(ConfigurationError):
            POLICIES.get("wats").build()
        with pytest.raises(ConfigurationError):
            POLICIES.get("eewa").build(core_levels=[0])

    def test_run_benchmark_pairs_programs(self):
        with SweepEngine() as engine:
            a, b = engine.run_grid([
                ScenarioSpec(workload="MD5", policy=policy, batches=3, seeds=(5,))
                for policy in ("cilk", "eewa")
            ])
        assert a.first.tasks_executed == b.first.tasks_executed

    def test_modal_levels_shape(self):
        with SweepEngine() as engine:
            levels = engine.modal_eewa_levels(
                ScenarioSpec(workload="SHA-1", policy="eewa", batches=4)
            )
        assert len(levels) == 16
        assert all(0 <= lv <= 3 for lv in levels)


class TestFig1:
    def test_schedule_ordering_matches_paper(self):
        """(b) saves energy at equal time; (c) loses on both axes vs (b)."""
        a, b, c, d = analytic_schedules(0.1)
        assert b.finish_time == pytest.approx(a.finish_time)
        assert b.energy < a.energy
        assert c.finish_time > b.finish_time
        assert c.energy > b.energy
        assert d.finish_time > b.finish_time

    def test_eewa_lands_on_schedule_b(self):
        result = run_fig1(0.1, batches=3)
        hists = result.trace.level_histograms()
        assert hists[0] == (2, 0)
        assert hists[-1] == (1, 1)
        # Steady-batch duration stays 2t.
        assert result.trace.batches[-1].duration == pytest.approx(0.2, rel=0.02)

    def test_fig1_rows_format(self):
        rows = fig1_rows(0.05)
        assert len(rows) == 5
        labels = [r[0] for r in rows]
        assert any("eewa" in label for label in labels)


class TestFig6:
    def test_shape_on_two_benchmarks(self):
        result = run_fig6(benchmarks=("MD5", "SHA-1"), batches=6, seeds=SEEDS)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.energy_eewa < row.energy_cilk  # EEWA wins on energy
            assert row.energy_eewa < row.energy_cilk_d  # and beats Cilk-D
            assert abs(row.eewa_time_change_pct) < 10.0  # time roughly held
        table = result.table()
        assert "MD5" in table and "SHA-1" in table


class TestFig7:
    def test_cilk_much_slower_wats_close_to_eewa(self):
        result = run_fig7(benchmarks=("SHA-1",), seeds=SEEDS, include_phased=False)
        row = result.rows[0]
        # Random stealing on the asymmetric config is disastrous...
        assert row.cilk_over_eewa > 1.5
        # ...while workload-aware stealing stays within a few percent of
        # EEWA (our WATS shares EEWA's machinery; see EXPERIMENTS.md).
        assert 0.9 < row.wats_over_eewa < 1.3
        assert row.wats_over_eewa < row.cilk_over_eewa
        assert "SHA-1" in result.table()

    def test_phased_row_included_by_default(self):
        result = run_fig7(benchmarks=(), seeds=SEEDS)
        assert [r.benchmark for r in result.rows] == ["DMC-phased"]

    @staticmethod
    def _run_counting(monkeypatch, seeds):
        """``run_fig7`` on SHA-1 with the policy of every simulated cell."""
        from repro.experiments import parallel

        simulated = []
        simulate = parallel.simulate

        def counting(program, policy, *args, **kwargs):
            simulated.append(policy.name)
            return simulate(program, policy, *args, **kwargs)

        monkeypatch.setattr(parallel, "simulate", counting)
        result = run_fig7(
            benchmarks=("SHA-1",), seeds=seeds, include_phased=False, batches=4
        )
        return result, simulated

    def test_each_cell_simulates_once(self, monkeypatch):
        # The modal configuration is read off the EEWA wave's own seed-11
        # cell, so the three distinct cells simulate three times.
        _, simulated = self._run_counting(monkeypatch, (11,))
        assert sorted(simulated) == ["cilk", "eewa", "wats"]

    def test_modal_cell_outside_the_seeds_runs_once_more(self, monkeypatch):
        with_seed, _ = self._run_counting(monkeypatch, (11,))
        without, simulated = self._run_counting(monkeypatch, (23,))
        assert sorted(simulated) == ["cilk", "eewa", "eewa", "wats"]
        assert without.rows[0].fixed_levels == with_seed.rows[0].fixed_levels


class TestFig8:
    def test_first_batch_all_fast_then_majority_slow(self):
        result = run_fig8(batches=6)
        hists = result.histograms
        assert hists[0] == (16, 0, 0, 0)
        for hist in hists[1:]:
            assert sum(hist) == 16
            assert hist[0] < 16
        # Paper shape: most cores end up at the lowest frequency.
        final = hists[-1]
        assert final[-1] >= 8

    def test_table_renders(self):
        result = run_fig8(batches=3)
        assert "2.5GHz" in result.table()


class TestFig9:
    def test_savings_grow_with_cores(self):
        result = run_fig9(core_counts=(4, 16), batches=6, seeds=SEEDS)
        savings = result.eewa_savings_by_cores()
        assert savings[4] < 5.0  # saturated: nothing to harvest
        assert savings[16] > 15.0  # plenty of slack
        assert savings[16] > savings[4]

    def test_time_held_at_all_scales(self):
        result = run_fig9(core_counts=(4, 16), batches=6, seeds=SEEDS)
        for point in result.points:
            assert point.time_eewa < 1.1


class TestFigHetero:
    def test_one_row_per_benchmark_with_three_positive_ratios(self):
        result = run_fig_hetero(benchmarks=("SHA-1",), batches=4, seeds=SEEDS)
        assert [r.benchmark for r in result.rows] == ["SHA-1", "DMC-phased"]
        for row in result.rows:
            for ratios in (row.time_over_cilk, row.energy_over_cilk):
                assert len(ratios) == 3
                assert all(math.isfinite(r) and r > 0 for r in ratios)
        assert "big.LITTLE 4+4" in result.table()


class TestTable3:
    def test_overhead_under_two_percent(self):
        result = run_table3(benchmarks=("MD5", "DMC"), batches=8)
        assert result.max_overhead_pct() < 2.0
        for row in result.rows:
            assert row.overhead_ms > 0
            assert row.decisions == 8
            assert math.isfinite(row.measured_wallclock_ms)


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1.0, "x"], [2.5, "yy"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_series(self):
        out = format_series("s", [4, 8], [1.0, 2.0])
        assert out == "s: 4=1.000, 8=2.000"

    def test_format_percent(self):
        assert format_percent(3.14) == "+3.1%"
        assert format_percent(-2.0) == "-2.0%"
