"""Tests for the complete EEWA scheduler policy."""

from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.core.membound import MemoryBoundMode
from repro.machine.counters import PerfCounters
from repro.machine.topology import opteron_8380_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.task import TaskSpec, flat_batch
from repro.sim.engine import simulate

REF = 2.5e9


def granular_program(batches=6, heavy=5, light=40):
    """A granularity-bound workload with clear slack."""
    out = []
    for i in range(batches):
        specs = [TaskSpec("heavy", cpu_cycles=0.045 * REF) for _ in range(heavy)]
        specs += [TaskSpec("light", cpu_cycles=0.0015 * REF) for _ in range(light)]
        out.append(flat_batch(i, specs))
    return out


def memory_bound_program(batches=4):
    """Granularity-bound AND memory-bound: the IGNORE ablation has slack to
    (mis)use, while FALLBACK correctly refuses to."""
    hot = PerfCounters(retired_instructions=1000, cache_misses=100)
    out = []
    for i in range(batches):
        specs = [
            TaskSpec("stream_big", cpu_cycles=0.002 * REF, mem_stall_seconds=0.02,
                     counters=hot)
            for _ in range(6)
        ]
        specs += [
            TaskSpec("stream_small", cpu_cycles=0.0005 * REF,
                     mem_stall_seconds=0.002, counters=hot)
            for _ in range(20)
        ]
        out.append(flat_batch(i, specs))
    return out


class TestFirstBatch:
    def test_first_batch_all_fast(self):
        machine = opteron_8380_machine()
        result = simulate(granular_program(), EEWAScheduler(), machine, seed=1)
        assert result.trace.level_histograms()[0] == (16, 0, 0, 0)

    def test_later_batches_scaled(self):
        machine = opteron_8380_machine()
        result = simulate(granular_program(), EEWAScheduler(), machine, seed=1)
        for hist in result.trace.level_histograms()[1:]:
            assert hist[0] < 16

    def test_all_tasks_complete(self):
        machine = opteron_8380_machine()
        program = granular_program()
        result = simulate(program, EEWAScheduler(), machine, seed=1)
        assert result.tasks_executed == sum(len(b) for b in program)


class TestEnergyClaim:
    def test_saves_energy_vs_cilk_with_bounded_slowdown(self):
        """The headline claim on a slack workload."""
        machine = opteron_8380_machine()
        program = granular_program(batches=8)
        cilk = simulate(program, CilkScheduler(), machine, seed=1)
        eewa = simulate(program, EEWAScheduler(), machine, seed=1)
        assert eewa.total_joules < 0.9 * cilk.total_joules
        assert eewa.total_time < 1.08 * cilk.total_time

    def test_no_slack_no_scaling(self):
        """A saturated machine keeps every core fast (Fig. 9, 4 cores)."""
        machine = opteron_8380_machine(num_cores=4)
        program = granular_program(batches=4, heavy=8, light=60)
        result = simulate(program, EEWAScheduler(), machine, seed=1)
        for hist in result.trace.level_histograms():
            assert hist[0] == 4


class TestMemoryBoundHandling:
    def test_fallback_keeps_all_fast(self):
        machine = opteron_8380_machine()
        result = simulate(memory_bound_program(), EEWAScheduler(), machine, seed=1)
        for hist in result.trace.level_histograms():
            assert hist == (16, 0, 0, 0)
        assert result.policy_stats["fallback_memory_bound"] == 1.0

    def test_ignore_mode_still_scales(self):
        machine = opteron_8380_machine()
        config = EEWAConfig(memory_bound_mode=MemoryBoundMode.IGNORE)
        result = simulate(memory_bound_program(), EEWAScheduler(config), machine, seed=1)
        assert any(h[0] < 16 for h in result.trace.level_histograms()[1:])

    def test_regression_mode_runs_and_completes(self):
        machine = opteron_8380_machine()
        config = EEWAConfig(memory_bound_mode=MemoryBoundMode.REGRESSION)
        program = memory_bound_program(batches=6)
        result = simulate(program, EEWAScheduler(config), machine, seed=1)
        assert result.tasks_executed == sum(len(b) for b in program)


class TestConfigKnobs:
    def test_frozen_plan_when_not_adapting(self):
        machine = opteron_8380_machine()
        config = EEWAConfig(adapt_every_batch=False)
        result = simulate(granular_program(), EEWAScheduler(config), machine, seed=1)
        hists = result.trace.level_histograms()
        # Batch 0 all fast; batch 1 adjusted once; then frozen.
        assert hists[0] == (16, 0, 0, 0)
        assert len(set(hists[1:])) == 1

    def test_fluid_mode_runs(self):
        machine = opteron_8380_machine()
        config = EEWAConfig(cc_mode="fluid")
        program = granular_program(batches=4)
        result = simulate(program, EEWAScheduler(config), machine, seed=1)
        assert result.tasks_executed == sum(len(b) for b in program)

    def test_overhead_charged_between_batches(self):
        machine = opteron_8380_machine()
        result = simulate(granular_program(), EEWAScheduler(), machine, seed=1)
        assert result.adjust_overhead_seconds > 0.0

    def test_adjuster_wallclock_tracked(self):
        machine = opteron_8380_machine()
        policy = EEWAScheduler()
        simulate(granular_program(), policy, machine, seed=1)
        assert policy.total_adjuster_wallclock() > 0.0
        assert len(policy.decisions) == 6  # one adjustment per batch end

    def test_unknown_class_goes_to_fastest_group(self):
        """A class appearing for the first time mid-run lands in G_0."""
        machine = opteron_8380_machine()
        program = granular_program(batches=4)
        # Inject a brand-new class in batch 2.
        specs = list(program[2].specs) + [TaskSpec("novel", cpu_cycles=0.03 * REF)]
        program[2] = flat_batch(2, specs)
        policy = EEWAScheduler()
        result = simulate(program, policy, machine, seed=1)
        novel = [t for t in result.tasks if t.function == "novel"]
        assert len(novel) == 1
        # It ran on the fastest c-group of its batch's plan (level 0 cores
        # exist in every scaled plan here) unless stolen late.
        assert novel[0].executed_level == 0 or novel[0].stolen


class TestRegressionSamples:
    def test_default_mode_records_no_regression_samples(self):
        # Only the REGRESSION decision path reads these samples.
        policy = EEWAScheduler()
        assert policy.config.memory_bound_mode is MemoryBoundMode.FALLBACK
        simulate(granular_program(), policy, opteron_8380_machine(), seed=4)
        assert policy.profiler is not None and policy.decisions
        assert policy.regression.functions() == []
