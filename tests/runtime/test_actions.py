"""Scheduler actions: immutable tuples with fixed fields and defaults."""

import pytest

from repro.core.eewa import EEWAScheduler
from repro.machine.topology import small_test_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.policy import RunTask, SetFrequency, Wait
from repro.runtime.task import TaskFactory, TaskSpec, flat_batch
from repro.sim.engine import simulate

TASK = TaskFactory().make(TaskSpec("f", 1.0), 0)


@pytest.mark.parametrize("action, fields", [
    (RunTask(TASK), {"task": TASK, "acquire_cycles": 0.0}),
    (SetFrequency(2), {"level": 2}),
    (Wait(), {"retry_after": None}),
    (Wait(retry_after=0.25), {"retry_after": 0.25}),
])
def test_fields_and_defaults(action, fields):
    assert action._fields == tuple(fields)
    assert {name: getattr(action, name) for name in action._fields} == fields


@pytest.mark.parametrize("action, field", [
    (RunTask(TASK), "acquire_cycles"),
    (SetFrequency(2), "level"),
    (Wait(), "retry_after"),
])
def test_assignment_raises(action, field):
    with pytest.raises(AttributeError):
        setattr(action, field, 1)


@pytest.mark.parametrize("policy", [CilkScheduler, EEWAScheduler])
def test_a_failed_scan_returns_the_wait_bound_once(policy):
    machine = small_test_machine()
    scheduler = policy()
    program = [flat_batch(0, [TaskSpec("f", 1e6)])]
    simulate(program, scheduler, machine)
    # Every pool is empty after the run, so both cores' scans fail.
    first = scheduler.next_action(0)
    assert first == Wait()
    assert type(first) is Wait
    assert scheduler.next_action(1) is first
