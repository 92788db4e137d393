"""Pinned traces of the mid-run retune path.

Under a shared DVFS domain a sibling's request can drag a RUNNING core to
a new level; the engine then rescales the task's remaining work and
reschedules its completion. No golden or long-horizon machine has shared
domains, so those hashes never reach this path. The fingerprints below
were taken from the engine before its in-flight bookkeeping moved into
per-core slots, and pin every float of both scenarios.
"""

from repro.machine.topology import MachineConfig, small_test_machine
from repro.runtime.policy import (
    BatchAdjustment,
    RunTask,
    SchedulerPolicy,
    SetFrequency,
    Wait,
)
from repro.runtime.task import TaskSpec, flat_batch
from repro.sim.engine import simulate
from repro.sim.fingerprint import trace_fingerprint

REF = 2.0e9

#: ``trace_fingerprint`` of each scenario, taken before the engine change.
PINNED = {
    "single": "58a5459f751b693f242adb494a3a7df0176631d80c6aa6857d58130cd33fb3ad",
    "several": "4dc00aacce1f7dd8ba8631a2d114d217d0d13b29fba0b3e8e1a40e8ac517eae9",
}


class ScriptedPlanes(SchedulerPolicy):
    """Workers ask for a slow level, which their plane absorbs while a
    controller sibling pins it fast, then run their share of the batch.
    Controllers move their plane at scripted instants, so the running
    workers are retuned mid-task."""

    name = "scripted-planes"

    def __init__(self, worker_levels, script):
        super().__init__()
        self._worker_levels = dict(worker_levels)
        self._script = {core: list(steps) for core, steps in script.items()}
        self._queues = {core: [] for core in self._worker_levels}

    def on_program_start(self):
        return BatchAdjustment(frequency_levels=[0] * self._require_ctx().machine.num_cores)

    def on_batch_start(self, batch, tasks):
        workers = sorted(self._queues)
        for i, task in enumerate(tasks):
            self._queues[workers[i % len(workers)]].append(task)

    def next_action(self, core_id):
        ctx = self._require_ctx()
        if core_id in self._queues:
            level = self._worker_levels.pop(core_id, None)
            if level is not None:
                return SetFrequency(level)  # absorbed by the pinned plane
            queue = self._queues[core_id]
            return RunTask(queue.pop(0)) if queue else Wait()
        steps = self._script.get(core_id)
        while steps:
            at, level = steps[0]
            if ctx.now() < at:
                return Wait(retry_after=at - ctx.now())
            steps.pop(0)
            if level != ctx.requested_level(core_id):
                return SetFrequency(level)
        return Wait()


def run_single():
    """The scenario of ``test_mid_run_retune_preserves_work``: one task on
    core 0, its plane released by core 1 at t=0.05 s."""
    base = small_test_machine(num_cores=2)
    machine = MachineConfig(
        num_cores=2, scale=base.scale, power=base.power,
        dvfs_domains=((0, 1),), dvfs_latency_s=0.0,
    )
    program = [flat_batch(0, [TaskSpec("w", cpu_cycles=0.2 * REF)])]
    policy = ScriptedPlanes({0: 1}, {1: [(0.05, 1)]})
    return simulate(program, policy, machine, seed=0)


def run_several():
    """Two planes, two workers with three tasks each, and planes dropped,
    raised and dropped again while tasks run, with DVFS latency."""
    base = small_test_machine(num_cores=4)
    machine = MachineConfig(
        num_cores=4, scale=base.scale, power=base.power,
        dvfs_domains=((0, 1), (2, 3)),
    )
    cycles = (0.03, 0.05, 0.02, 0.04, 0.06, 0.01)
    program = [
        flat_batch(0, [TaskSpec(f"t{i}", cpu_cycles=c * REF) for i, c in enumerate(cycles)]),
        flat_batch(1, [TaskSpec("u", cpu_cycles=0.025 * REF) for _ in range(4)]),
    ]
    policy = ScriptedPlanes(
        {0: 1, 2: 1},
        {1: [(0.01, 1), (0.04, 0), (0.07, 1)], 3: [(0.02, 1), (0.15, 0)]},
    )
    return simulate(program, policy, machine, seed=0)


def retunes(result):
    """The DVFS transitions of cores that were running a task."""
    return [
        (tr.time, tr.core_id)
        for tr in result.trace.transitions
        if any(
            task.executed_on == tr.core_id and task.start_time <= tr.time < task.finish_time
            for task in result.tasks
        )
    ]


def test_single_task_retune_trace_is_pinned():
    result = run_single()
    assert result.tasks_executed == 1
    assert retunes(result) == [(0.05, 0)]
    assert trace_fingerprint(result) == PINNED["single"]


def test_several_task_retune_trace_is_pinned():
    result = run_several()
    assert result.tasks_executed == 10
    # Five retunes, on both planes, one of them raising the level.
    assert [core for _, core in retunes(result)] == [0, 2, 0, 0, 2]
    assert trace_fingerprint(result) == PINNED["several"]
