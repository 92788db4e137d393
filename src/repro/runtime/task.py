"""Task and batch model.

The paper targets *iteration-based* (batch-based) parallel applications:
the program launches a batch of parallel tasks (e.g. 128, as Cilk++
suggests), waits for all of them at a barrier, then launches the next batch
(Section IV). Tasks are grouped into *task classes by function name*; the
class is the unit the frequency adjuster reasons about.

A :class:`TaskSpec` is the immutable description of one task's cost; a
:class:`Task` is the engine's mutable execution record for one spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.machine.counters import PerfCounters


@dataclass(frozen=True)
class TaskSpec:
    """Immutable cost description of one task.

    Parameters
    ----------
    function:
        The task's function name — its *task class* identity (paper
        Section III-A1: "tasks are grouped into task classes according to
        their function names").
    cpu_cycles:
        Cycles of frequency-scalable CPU work.
    mem_stall_seconds:
        Frequency-independent memory stall time (0 for the CPU-bound
        benchmarks of Table II; positive for memory-bound tasks used to
        exercise the Section IV-D fallback).
    counters:
        Simulated PMU readings delivered when the task retires.
    children:
        Specs spawned when this task starts executing (Cilk-style nested
        spawns). Empty for flat batch workloads.
    """

    function: str
    cpu_cycles: float
    mem_stall_seconds: float = 0.0
    counters: Optional[PerfCounters] = None
    children: tuple["TaskSpec", ...] = ()

    def __post_init__(self) -> None:
        if not self.function:
            raise ConfigurationError("a task needs a function name")
        if self.cpu_cycles < 0:
            raise ConfigurationError("cpu_cycles must be non-negative")
        if self.mem_stall_seconds < 0:
            raise ConfigurationError("mem_stall_seconds must be non-negative")

    def total_cpu_cycles(self) -> float:
        """CPU cycles of this spec plus all descendants."""
        return self.cpu_cycles + sum(c.total_cpu_cycles() for c in self.children)

    def count_tasks(self) -> int:
        """Number of tasks this spec expands to (itself plus descendants)."""
        return 1 + sum(c.count_tasks() for c in self.children)


@dataclass(slots=True)
class Task:
    """Mutable execution record for one spec instance.

    ``slots=True``: runs mint one instance per executed task (hundreds of
    thousands across a sweep) and the engine reads/writes these fields in
    its hot path.
    """

    task_id: int
    spec: TaskSpec
    batch_index: int
    stolen: bool = False
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    executed_on: Optional[int] = None
    executed_level: Optional[int] = None

    @property
    def function(self) -> str:
        return self.spec.function

    @property
    def elapsed(self) -> float:
        """Observed execution time (profiler input; Eq. 1 numerator)."""
        if self.start_time is None or self.finish_time is None:
            raise ConfigurationError(f"task {self.task_id} has not finished")
        return self.finish_time - self.start_time


@dataclass(frozen=True)
class Batch:
    """One iteration's worth of tasks."""

    index: int
    specs: tuple[TaskSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError(f"batch {self.index} is empty")

    def __len__(self) -> int:
        return len(self.specs)

    def total_tasks(self) -> int:
        return sum(s.count_tasks() for s in self.specs)

    def total_cpu_cycles(self) -> float:
        return sum(s.total_cpu_cycles() for s in self.specs)

    def functions(self) -> set[str]:
        names: set[str] = set()
        stack = list(self.specs)
        while stack:
            spec = stack.pop()
            names.add(spec.function)
            stack.extend(spec.children)
        return names


class TaskFactory:
    """Mints :class:`Task` records with process-unique dense ids.

    The counter is a plain observable int (not :func:`itertools.count`) so
    the engine's steady-state fast-forward can mint replayed task ids
    arithmetically and :meth:`advance_to` the factory past them before
    resuming normal simulation.
    """

    def __init__(self) -> None:
        self._next_id = 0

    @property
    def next_id(self) -> int:
        """The id the next :meth:`make` call will assign."""
        return self._next_id

    def advance_to(self, next_id: int) -> None:
        """Skip the counter forward (fast-forward replay minted ids)."""
        if next_id < self._next_id:
            raise ConfigurationError(
                f"cannot rewind task ids from {self._next_id} to {next_id}"
            )
        self._next_id = next_id

    def make(self, spec: TaskSpec, batch_index: int) -> Task:
        task_id = self._next_id
        self._next_id = task_id + 1
        return Task(task_id=task_id, spec=spec, batch_index=batch_index)

    def make_batch(self, specs: Sequence[TaskSpec], batch_index: int) -> list[Task]:
        """One task per spec, with the consecutive ids that calling
        :meth:`make` once per spec would assign."""
        first = self._next_id
        self._next_id = first + len(specs)
        return [
            Task(task_id, spec, batch_index) for task_id, spec in enumerate(specs, first)
        ]


def flat_batch(index: int, specs: Sequence[TaskSpec]) -> Batch:
    """Convenience constructor for a batch of independent tasks."""
    return Batch(index=index, specs=tuple(specs))


def iter_programs_batches(batches: Sequence[Batch]) -> Iterator[Batch]:
    """Validate batch indices are dense and yield them in order."""
    for expected, batch in enumerate(batches):
        if batch.index != expected:
            raise ConfigurationError(
                f"batch indices must be dense from 0; got {batch.index} at position {expected}"
            )
        yield batch
