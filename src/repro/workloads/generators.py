"""Deterministic batch generation from workload specs.

Given a :class:`~repro.workloads.spec.WorkloadSpec` and a seed, the
generator emits the program (list of batches of
:class:`~repro.runtime.task.TaskSpec`) that the simulator executes. All
randomness comes from named seeded streams, so the same (spec, seed) always
yields the identical program — the property the reproducibility tests rely
on.
"""

from __future__ import annotations

import operator
from typing import Sequence

from repro.machine.counters import PerfCounters
from repro.machine.frequency import GHZ
from repro.runtime.task import Batch, TaskSpec, flat_batch
from repro.sim.rng import RngStreams
from repro.workloads.spec import TaskClassSpec, WorkloadSpec

#: Default reference frequency: task mean times are given at F_0 = 2.5 GHz.
DEFAULT_REF_FREQUENCY = 2.5 * GHZ

#: Simulated instructions retired per cycle (only the miss *ratio* matters
#: to the classifier, so any consistent constant works).
_IPC = 1.0

#: Clamp for the per-class drift random walk so workloads stay recognisable.
_DRIFT_MIN, _DRIFT_MAX = 0.7, 1.4

#: Version of the programs :func:`generate_program` makes. A generated
#: cell's cache key hashes this, the workload spec, the batch count and
#: the seed instead of the program itself, so bump it with any change
#: that makes some (spec, batches, seed) generate a different program;
#: otherwise cached results of the old programs are served for the new
#: ones. ``tests/workloads/test_program_digests.py`` pins program digests
#: and fails when one moves.
GENERATOR_VERSION = 1


def _task_spec(
    cls: TaskClassSpec,
    work_seconds: float,
    ref_frequency: float,
) -> TaskSpec:
    mem_stall = work_seconds * cls.mem_stall_fraction
    cpu_seconds = work_seconds - mem_stall
    cpu_cycles = cpu_seconds * ref_frequency
    instructions = max(1, int(cpu_cycles * _IPC))
    misses = int(instructions * cls.miss_intensity)
    return TaskSpec(
        function=cls.name,
        cpu_cycles=cpu_cycles,
        mem_stall_seconds=mem_stall,
        counters=PerfCounters(retired_instructions=instructions, cache_misses=misses),
    )


def generate_program(
    spec: WorkloadSpec,
    *,
    batches: int | None = None,
    seed: int = 0,
    ref_frequency: float = DEFAULT_REF_FREQUENCY,
) -> list[Batch]:
    """Generate the full program for ``spec``.

    Per batch, each class's mean follows a clamped lognormal random walk
    (drift); each task jitters lognormally around the drifted mean; the
    batch's task order is shuffled so placement does not accidentally
    presort classes.

    Repeated work is shared, not rebuilt: a class's :class:`TaskSpec`
    (with its counters) is reused while the class's work value repeats,
    and a batch holding the same spec objects as the batch before it
    reuses that batch's ``specs`` tuple. A jitter- and drift-free program
    of any length therefore holds one spec per class and one tuple, which
    is what lets the cell key encode it once per distinct batch.
    """
    if batches is None:
        batches = spec.default_batches
    if batches < 1:
        raise ValueError("batches must be >= 1")

    rng = RngStreams(seed)
    drift = {c.name: 1.0 for c in spec.classes}
    # Per class: the last work value and the spec built for it.
    last: dict[str, tuple[float, TaskSpec]] = {}

    program: list[Batch] = []
    previous: tuple[TaskSpec, ...] = ()
    for b in range(batches):
        specs: list[TaskSpec] = []
        for cls in spec.classes:
            if b > 0:
                step = rng.lognormal_factor(f"drift.{spec.name}.{cls.name}", cls.drift_sigma)
                drift[cls.name] = min(_DRIFT_MAX, max(_DRIFT_MIN, drift[cls.name] * step))
            mean = cls.mean_seconds * drift[cls.name]
            jitter_stream = f"jitter.{spec.name}.{cls.name}"
            last_work, last_spec = last.get(cls.name, (None, None))
            for _ in range(cls.count_in_batch(b)):
                work = mean * rng.lognormal_factor(jitter_stream, cls.jitter_sigma)
                if work != last_work:
                    last_work, last_spec = work, _task_spec(cls, work, ref_frequency)
                specs.append(last_spec)
            last[cls.name] = (last_work, last_spec)
        shuffled = rng.shuffled(f"order.{spec.name}", range(len(specs)))
        ordered = [specs[i] for i in shuffled]
        # Spawn heavy tasks last: owner deques pop LIFO, so the last-pushed
        # (heaviest) tasks start first — the LPT-style spawn order a sane
        # Cilk program uses and the strongest-possible baseline behaviour.
        ordered.sort(key=lambda s: s.cpu_cycles + s.mem_stall_seconds * ref_frequency)
        if len(ordered) == len(previous) and all(map(operator.is_, ordered, previous)):
            batch = flat_batch(b, previous)
        else:
            batch = flat_batch(b, ordered)
            previous = batch.specs
        program.append(batch)
    return program


def program_total_work(program: Sequence[Batch]) -> float:
    """Total CPU cycles across all batches (conservation checks)."""
    return sum(batch.total_cpu_cycles() for batch in program)
