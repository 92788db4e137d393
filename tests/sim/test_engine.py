"""Tests for the discrete-event engine."""

from unittest import mock

import pytest

from repro.core.eewa import EEWAScheduler
from repro.errors import SchedulingError, SimulationError
from repro.machine.energy import EnergyMeter
from repro.machine.topology import opteron_8380_machine, small_test_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.policy import RunTask, SchedulerPolicy, SetFrequency, Wait
from repro.runtime.task import TaskSpec, flat_batch
from repro.sim.engine import Simulator, simulate
from repro.workloads.benchmarks import benchmark_program

REF = 2.0e9  # fastest level of small_test_machine


def batch_of(index, *seconds, function="work"):
    return flat_batch(
        index, [TaskSpec(function, cpu_cycles=s * REF) for s in seconds]
    )


class TestBasicExecution:
    def test_single_task_single_core(self):
        machine = small_test_machine(num_cores=1)
        result = simulate([batch_of(0, 0.5)], CilkScheduler(), machine)
        assert result.tasks_executed == 1
        # pop cost: 400 cycles at 2 GHz
        assert result.total_time == pytest.approx(0.5 + 400 / REF)

    def test_two_tasks_two_cores_parallel(self):
        machine = small_test_machine(num_cores=2)
        result = simulate([batch_of(0, 0.5, 0.5)], CilkScheduler(), machine)
        assert result.total_time == pytest.approx(0.5 + 400 / REF)

    def test_batches_run_sequentially(self):
        machine = small_test_machine(num_cores=2)
        program = [batch_of(0, 0.1, 0.1), batch_of(1, 0.1, 0.1)]
        result = simulate(program, CilkScheduler(), machine)
        assert result.batches_executed == 2
        assert result.total_time == pytest.approx(0.2 + 2 * 400 / REF)

    def test_all_tasks_execute_exactly_once(self, two_class_program):
        machine = small_test_machine(num_cores=4)
        result = simulate(two_class_program, CilkScheduler(), machine)
        expected = sum(len(b) for b in two_class_program)
        assert result.tasks_executed == expected
        ids = [t.task_id for t in result.tasks]
        assert len(ids) == len(set(ids))

    def test_work_conservation(self, two_class_program):
        """Total busy-running time equals total task time at the used freqs."""
        machine = small_test_machine(num_cores=4)
        result = simulate(two_class_program, CilkScheduler(), machine)
        running = sum(
            acct.seconds_by_state.get(
                __import__("repro.machine.core", fromlist=["CoreState"]).CoreState.RUNNING,
                0.0,
            )
            for acct in result.meter.accounts
        )
        task_time = sum(t.finish_time - t.start_time for t in result.tasks)
        acquire_time = running - task_time  # pop/steal charges
        assert acquire_time >= 0
        assert acquire_time < 0.01 * running + 1e-6

    def test_empty_program_rejected(self):
        machine = small_test_machine()
        with pytest.raises(SimulationError):
            simulate([], CilkScheduler(), machine)


class TestStealing:
    def test_imbalanced_batch_triggers_steals(self):
        machine = small_test_machine(num_cores=2)
        # Eight tasks land round-robin; the heavy task is pushed last onto
        # core 0's LIFO deque, so core 0 pops it first and its queued small
        # tasks become steal targets for core 1.
        program = [batch_of(0, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.4, 0.01)]
        result = simulate(program, CilkScheduler(), machine, seed=5)
        assert result.policy_stats["tasks_stolen"] > 0
        # Makespan far below serial sum: parallelism worked.
        assert result.total_time < 0.45

    def test_spin_energy_positive_for_imbalance(self):
        machine = small_test_machine(num_cores=2)
        program = [batch_of(0, 0.4, 0.01)]
        result = simulate(program, CilkScheduler(), machine)
        assert result.spin_joules > 0.0


class TestSpawning:
    def test_children_spawn_and_complete(self):
        machine = small_test_machine(num_cores=2)
        child = TaskSpec("child", cpu_cycles=0.05 * REF)
        parent = TaskSpec("parent", cpu_cycles=0.1 * REF, children=(child, child))
        program = [flat_batch(0, [parent])]
        result = simulate(program, CilkScheduler(), machine)
        assert result.tasks_executed == 3
        functions = sorted(t.function for t in result.tasks)
        assert functions == ["child", "child", "parent"]

    def test_children_overlap_with_parent(self):
        """Spawned children are stealable while the parent still runs."""
        machine = small_test_machine(num_cores=2)
        child = TaskSpec("child", cpu_cycles=0.1 * REF)
        parent = TaskSpec("parent", cpu_cycles=0.1 * REF, children=(child,))
        result = simulate([flat_batch(0, [parent])], CilkScheduler(), machine)
        assert result.total_time < 0.19  # parallel, not 0.2 serial


class TestDeterminism:
    def test_same_seed_identical_results(self, two_class_program):
        machine = small_test_machine(num_cores=4)
        a = simulate(two_class_program, CilkScheduler(), machine, seed=9)
        b = simulate(two_class_program, CilkScheduler(), machine, seed=9)
        assert a.total_time == b.total_time
        assert a.total_joules == b.total_joules
        assert [t.task_id for t in a.tasks] == [t.task_id for t in b.tasks]

    def test_different_seed_may_differ(self, two_class_program):
        machine = small_test_machine(num_cores=4)
        a = simulate(two_class_program, CilkScheduler(), machine, seed=1)
        b = simulate(two_class_program, CilkScheduler(), machine, seed=2)
        # Times may coincide, but the steal pattern generally differs.
        assert (
            a.policy_stats["tasks_stolen"] != b.policy_stats["tasks_stolen"]
            or a.total_time != b.total_time
            or a.total_joules == b.total_joules  # degenerate but allowed
        )


class TestLivelockGuard:
    def test_runaway_policy_detected(self):
        class BadPolicy(SchedulerPolicy):
            name = "bad"

            def on_batch_start(self, batch, tasks):
                self._tasks = list(tasks)

            def next_action(self, core_id):
                # Never hands out work, but keeps asking for instant retries.
                return Wait(retry_after=0.0)

        machine = small_test_machine(num_cores=1)
        sim = Simulator(machine, BadPolicy(), max_events=5000)
        with pytest.raises(SimulationError, match="livelock|outstanding"):
            sim.run([batch_of(0, 0.1)])


class TestActionDispatch:
    def test_subclassed_action_is_an_unknown_action(self):
        class TaggedRunTask(RunTask):
            pass

        class SubclassingPolicy(SchedulerPolicy):
            name = "subclassing"

            def on_batch_start(self, batch, tasks):
                self._tasks = list(tasks)

            def next_action(self, core_id):
                return TaggedRunTask(self._tasks.pop())

        machine = small_test_machine(num_cores=1)
        with pytest.raises(SchedulingError, match="unknown action"):
            simulate([batch_of(0, 0.1)], SubclassingPolicy(), machine)


class _ListPolicy(SchedulerPolicy):
    """Hands out a batch's tasks, longest first, to whichever core asks."""

    name = "list"

    def on_batch_start(self, batch, tasks):
        self._tasks = sorted(tasks, key=lambda t: t.spec.cpu_cycles)

    def next_action(self, core_id):
        return RunTask(self._tasks.pop()) if self._tasks else Wait()


def _observations(program, policy, machine):
    """Every ``EnergyMeter.observe`` call of one run, as ``(now, core)``."""
    calls = []
    observe = EnergyMeter.observe

    def record(meter, now, core=None):
        calls.append((now, core))
        observe(meter, now, core)

    with mock.patch.object(EnergyMeter, "observe", record):
        result = simulate(program, policy, machine)
    return calls, result


def _repeats(calls):
    return sum(a == b for a, b in zip(calls, calls[1:]))


class TestOneObservationPerSwitch:
    """A core observed by a completion handler is not observed again when
    the handler dispatches it onto a task at the same instant."""

    def test_task_completion_then_start(self):
        machine = small_test_machine(num_cores=1)
        calls, result = _observations([batch_of(0, 0.5, 0.25)], _ListPolicy(), machine)
        first, second = sorted(result.tasks, key=lambda t: t.finish_time)
        assert second.start_time == first.finish_time  # no acquire cost
        assert calls.count((first.finish_time, 0)) == 1
        assert _repeats(calls) == 0

    def test_dvfs_completion_then_start(self):
        class SlowDown(_ListPolicy):
            def next_action(self, core_id):
                if self.ctx.requested_level(core_id) == 0:
                    return SetFrequency(1)
                return super().next_action(core_id)

        machine = small_test_machine(num_cores=1)
        calls, result = _observations([batch_of(0, 0.5)], SlowDown(), machine)
        (task,) = result.tasks
        assert task.executed_level == 1
        switched = machine.dvfs_latency_s
        assert calls.count((switched, 0)) == 1
        assert _repeats(calls) == 0

    def test_a_paper_cell_repeats_no_observation(self):
        program = benchmark_program("SHA-1", batches=4, seed=11)
        calls, result = _observations(program, EEWAScheduler(), opteron_8380_machine())
        assert result.tasks_executed > 100
        assert _repeats(calls) == 0
