"""Tests for the simulated core state machine."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.machine.core import BUSY_STATES, CoreState, SimCore
from repro.machine.frequency import opteron_8380_scale
from repro.machine.topology import small_test_machine
from repro.runtime.policy import RunTask, SchedulerPolicy, Wait
from repro.runtime.task import TaskSpec, flat_batch
from repro.sim.engine import simulate


@pytest.fixture
def core() -> SimCore:
    return SimCore(core_id=0, scale=opteron_8380_scale())


def at_first_completion(check):
    """Run a long and a short task on two cores; call ``check(sim, task)``
    when core 1 has finished the short one and core 0 still runs the long
    one. Starting and finishing a task are the engine's: its per-core slot
    records the task, and it sets the core's state."""
    checked = []

    class Probe(SchedulerPolicy):
        name = "probe"

        def on_batch_start(self, batch, tasks):
            self._tasks = sorted(tasks, key=lambda t: t.spec.cpu_cycles)

        def next_action(self, core_id):
            return RunTask(self._tasks.pop()) if self._tasks else Wait()

        def on_task_complete(self, core_id, task):
            if core_id == 1:
                check(self.ctx, task)
                checked.append(task)

    program = [flat_batch(0, [TaskSpec("long", 1e9), TaskSpec("short", 2e8)])]
    simulate(program, Probe(), small_test_machine())
    assert len(checked) == 1


class TestLifecycle:
    def test_initial_state_parked_at_fastest(self, core):
        assert core.state is CoreState.PARKED
        assert core.level == 0
        assert core.frequency == opteron_8380_scale().fastest

    def test_run_finish_cycle(self):
        def check(sim, task):
            assert task.spec.function == "short"
            assert sim._cores[1].state is CoreState.SPINNING
            assert sim._running[1] is None
            assert sim._cores[0].state is CoreState.RUNNING
            assert sim._running[0].spec.function == "long"

        at_first_completion(check)

    def test_cannot_start_while_running(self):
        def check(sim, task):
            # Only a spinning core is dispatched, so only it starts a task.
            with pytest.raises(SimulationError, match="dispatch of core 0"):
                sim._dispatch(sim._cores[0])

        at_first_completion(check)

    def test_cannot_finish_when_not_running(self):
        def check(sim, task):
            # A completion must name the task in its core's slot.
            with pytest.raises(SimulationError, match="runs none"):
                sim._handle_task_done(1, task.task_id, sim._done_seq[1])
            long_id = sim._running[0].task_id
            with pytest.raises(SimulationError, match=f"runs {long_id}"):
                sim._handle_task_done(0, task.task_id, sim._done_seq[0])

        at_first_completion(check)

    # A running core below is one the engine would have set RUNNING.

    def test_cannot_park_or_spin_while_running(self, core):
        core.spin()
        core.state = CoreState.RUNNING
        with pytest.raises(SimulationError):
            core.park()
        with pytest.raises(SimulationError):
            core.spin()


class TestDvfs:
    def test_transition_changes_level(self, core):
        core.spin()
        core.begin_transition(3)
        assert core.in_transition
        assert core.level == 0  # not yet applied
        core.complete_transition()
        assert core.level == 3
        assert core.state is CoreState.SPINNING

    def test_cannot_transition_while_running(self, core):
        core.spin()
        core.state = CoreState.RUNNING
        with pytest.raises(SimulationError):
            core.begin_transition(1)

    def test_complete_without_begin_raises(self, core):
        with pytest.raises(SimulationError):
            core.complete_transition()

    def test_invalid_level_rejected(self, core):
        core.spin()
        with pytest.raises(ConfigurationError):
            core.begin_transition(9)


class TestExecTime:
    def test_cpu_time_scales_with_frequency(self, core):
        core.spin()
        cycles = 2.5e9  # one second at F0
        assert core.exec_seconds(cycles) == pytest.approx(1.0)
        core.begin_transition(3)
        core.complete_transition()
        assert core.exec_seconds(cycles) == pytest.approx(2.5 / 0.8)

    def test_mem_stall_does_not_scale(self, core):
        core.spin()
        t_fast = core.exec_seconds(0.0, mem_stall_seconds=0.5)
        core.begin_transition(3)
        core.complete_transition()
        t_slow = core.exec_seconds(0.0, mem_stall_seconds=0.5)
        assert t_fast == pytest.approx(t_slow) == pytest.approx(0.5)

    def test_negative_cost_rejected(self, core):
        with pytest.raises(SimulationError):
            core.exec_seconds(-1.0)

    def test_busy_states(self):
        assert CoreState.RUNNING in BUSY_STATES
        assert CoreState.SPINNING in BUSY_STATES
        assert CoreState.PARKED not in BUSY_STATES
        assert CoreState.TRANSITION not in BUSY_STATES

    def test_negative_core_id_rejected(self):
        with pytest.raises(ConfigurationError):
            SimCore(core_id=-1, scale=opteron_8380_scale())
