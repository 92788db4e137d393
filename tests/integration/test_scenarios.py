"""Cross-cutting scenario tests: unusual machine shapes, policy/domain
combinations, and scale smoke tests."""

from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.machine.operating_point import homogeneous_space
from repro.machine.power import calibrated_power_model
from repro.machine.topology import MachineConfig, opteron_8380_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.cilk_d import CilkDScheduler
from repro.runtime.wats import WATSScheduler
from repro.sim.engine import simulate
from repro.workloads.benchmarks import benchmark_program
from repro.workloads.generators import generate_program
from repro.workloads.synthetic import imbalance_sweep_spec


def machine_with(levels, num_cores=8, domains=None):
    scale = homogeneous_space(levels)
    power = calibrated_power_model(scale)
    return MachineConfig(
        num_cores=num_cores, scale=scale, power=power, dvfs_domains=domains
    )


class TestUnusualLadders:
    def test_two_level_machine(self):
        """EEWA works with a minimal fast/slow ladder."""
        machine = machine_with((3.0e9, 1.0e9), num_cores=8)
        program = generate_program(imbalance_sweep_spec(3), batches=6, seed=2)
        cilk = simulate(program, CilkScheduler(), machine, seed=2)
        eewa = simulate(program, EEWAScheduler(), machine, seed=2)
        assert eewa.total_joules < cilk.total_joules
        assert eewa.total_time < 1.1 * cilk.total_time

    def test_six_level_machine(self):
        """A fine ladder gives the search more room; still converges."""
        machine = machine_with(
            tuple(3.0e9 * 0.85**i for i in range(6)), num_cores=12
        )
        program = generate_program(imbalance_sweep_spec(4), batches=6, seed=2)
        eewa = simulate(program, EEWAScheduler(), machine, seed=2)
        assert eewa.tasks_executed == sum(len(b) for b in program)
        # Some level other than the extremes is plausible but not required;
        # just assert a valid partition every batch.
        for hist in eewa.trace.level_histograms():
            assert sum(hist) == 12 and len(hist) == 6

    def test_single_core_machine(self):
        """Degenerate m=1: everything serialises, nothing crashes."""
        machine = machine_with((2.0e9, 1.0e9), num_cores=1)
        program = generate_program(imbalance_sweep_spec(1, light_tasks=5), batches=3, seed=1)
        for policy in (CilkScheduler(), CilkDScheduler(), EEWAScheduler()):
            result = simulate(program, policy, machine, seed=1)
            assert result.tasks_executed == sum(len(b) for b in program)


class TestPolicyDomainCombinations:
    def test_wats_on_domain_machine(self):
        """WATS's fixed levels get coerced by planes and still complete."""
        machine = opteron_8380_machine(per_socket_dvfs=True)
        program = benchmark_program("DMC", batches=4, seed=7)
        # Levels that straddle a socket: plane semantics force the fast one.
        levels = [0] * 6 + [3] * 10
        result = simulate(program, WATSScheduler(levels), machine, seed=7)
        assert result.tasks_executed == sum(len(b) for b in program)
        # Socket 1 (cores 4-7) holds both a 0-request and 3-requests: the
        # whole plane must run fast.
        for task in result.tasks:
            if task.executed_on in (4, 5, 6, 7):
                assert task.executed_level == 0

    def test_cilk_d_on_domain_machine_saves_less(self):
        """Planes blunt Cilk-D: one busy sibling pins four cores fast."""
        program = benchmark_program("SHA-1", batches=8, seed=11)
        fine = opteron_8380_machine()
        coarse = opteron_8380_machine(per_socket_dvfs=True)
        saving = {}
        for label, machine in (("fine", fine), ("coarse", coarse)):
            cilk = simulate(program, CilkScheduler(), machine, seed=11)
            cilk_d = simulate(program, CilkDScheduler(), machine, seed=11)
            saving[label] = 1 - cilk_d.total_joules / cilk.total_joules
        assert 0.0 <= saving["coarse"] < saving["fine"]


class TestScaleSmoke:
    def test_sixty_four_cores(self):
        machine = opteron_8380_machine(num_cores=64)
        program = benchmark_program("SHA-1", batches=4, seed=3)
        cilk = simulate(program, CilkScheduler(), machine, seed=3)
        eewa = simulate(program, EEWAScheduler(), machine, seed=3)
        assert eewa.tasks_executed == cilk.tasks_executed
        # Tiny workload on a huge machine: nearly everything parks slow.
        assert eewa.total_joules < 0.75 * cilk.total_joules

    def test_long_run_thirty_batches(self):
        machine = opteron_8380_machine()
        program = benchmark_program("MD5", batches=30, seed=3)
        result = simulate(program, EEWAScheduler(), machine, seed=3)
        assert result.batches_executed == 30
        # Overhead share stays within the paper's Table III bound.
        assert result.adjust_overhead_seconds / result.total_time < 0.02


class TestConfigInteractions:
    def test_exhaustive_plus_fluid(self):
        machine = opteron_8380_machine()
        program = benchmark_program("DMC", batches=4, seed=9)
        config = EEWAConfig(search="exhaustive", cc_mode="fluid")
        result = simulate(program, EEWAScheduler(config), machine, seed=9)
        assert result.tasks_executed == sum(len(b) for b in program)

    def test_headroom_zero_still_safe(self):
        machine = opteron_8380_machine()
        program = benchmark_program("SHA-1", batches=6, seed=9)
        cilk = simulate(program, CilkScheduler(), machine, seed=9)
        result = simulate(
            program, EEWAScheduler(EEWAConfig(headroom=0.0)), machine, seed=9
        )
        assert result.total_time < 1.15 * cilk.total_time

    def test_large_headroom_conservative(self):
        """Huge headroom kills most scaling but never correctness."""
        machine = opteron_8380_machine()
        program = benchmark_program("SHA-1", batches=6, seed=9)
        tight = simulate(
            program, EEWAScheduler(EEWAConfig(headroom=1.0)), machine, seed=9
        )
        normal = simulate(program, EEWAScheduler(), machine, seed=9)
        assert tight.tasks_executed == normal.tasks_executed
        assert tight.total_joules >= normal.total_joules - 1e-9
