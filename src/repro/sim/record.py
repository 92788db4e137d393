"""Compact cell records: what a cached or served cell keeps of a run.

A :class:`~repro.sim.engine.SimResult` carries live simulation objects —
the :class:`~repro.machine.energy.EnergyMeter` and every finished
:class:`~repro.runtime.task.Task` with its
:class:`~repro.runtime.task.TaskSpec` — that nothing reading a sweep
result uses, yet pickling them dominates a cache entry. A
:class:`CellResult` keeps exactly what those readers use: the scalars,
``policy_name``, ``machine``, ``policy_stats``, the batch counters, the
:class:`~repro.sim.trace.TraceRecorder`, and each finished task as a plain
tuple row (read back as :class:`TaskRecord` through :attr:`CellResult.tasks`).
``trace_fingerprint`` and every :mod:`repro.sim.export` function give the
same output on a result and on its record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.machine.topology import MachineConfig
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import SimResult


class TaskRecord(NamedTuple):
    """One finished task, field-compatible with a finished ``Task``."""

    task_id: int
    function: str
    batch_index: int
    stolen: bool
    start_time: float
    finish_time: float
    executed_on: int
    executed_level: int


@dataclass(frozen=True)
class CellResult:
    """The record of one cell that the sweep engine caches and returns.

    ``task_rows`` holds plain tuples in :class:`TaskRecord` field order:
    a tuple of builtins pickles in a fraction of the time a named tuple
    or a ``Task`` does.
    """

    policy_name: str
    machine: MachineConfig
    total_time: float
    total_joules: float
    core_joules: float
    baseline_joules: float
    spin_joules: float
    running_joules: float
    tasks_executed: int
    batches_executed: int
    trace: TraceRecorder = field(default_factory=TraceRecorder)
    task_rows: tuple[tuple, ...] = field(default=(), repr=False)
    adjust_overhead_seconds: float = 0.0
    policy_stats: dict[str, float] = field(default_factory=dict)
    batches_simulated: int = 0
    batches_fast_forwarded: int = 0

    @classmethod
    def from_sim(cls, result: "SimResult") -> "CellResult":
        """The record of a full simulation result (drops meter and tasks)."""
        return cls(
            policy_name=result.policy_name,
            machine=result.machine,
            total_time=result.total_time,
            total_joules=result.total_joules,
            core_joules=result.core_joules,
            baseline_joules=result.baseline_joules,
            spin_joules=result.spin_joules,
            running_joules=result.running_joules,
            tasks_executed=result.tasks_executed,
            batches_executed=result.batches_executed,
            trace=result.trace,
            task_rows=tuple(
                (t.task_id, t.spec.function, t.batch_index, t.stolen,
                 t.start_time, t.finish_time, t.executed_on, t.executed_level)
                for t in result.tasks
            ),
            adjust_overhead_seconds=result.adjust_overhead_seconds,
            policy_stats=result.policy_stats,
            batches_simulated=result.batches_simulated,
            batches_fast_forwarded=result.batches_fast_forwarded,
        )

    @property
    def tasks(self) -> list[TaskRecord]:
        """The finished tasks, in completion order."""
        return list(map(TaskRecord._make, self.task_rows))

    @property
    def average_power(self) -> float:
        """Mean whole-machine power draw in watts."""
        if self.total_time <= 0:
            return 0.0
        return self.total_joules / self.total_time


__all__ = ["CellResult", "TaskRecord"]
