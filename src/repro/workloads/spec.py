"""Workload specifications.

A :class:`WorkloadSpec` describes an iteration-based parallel application
the way the paper's benchmarks behave: every batch launches a fixed mix of
task classes; per-task execution times jitter around the class mean; class
means drift slowly across batches ("the workloads of tasks may change
slightly in different iterations", Section II-A) — the drift is what the
preference-based stealing has to absorb and what makes frozen plans stale.

Task costs are expressed in seconds *on the fastest core* (``F_0``); the
generator converts them to cycles with the reference frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import WorkloadError


#: The :class:`TaskClassSpec` fields that hold numbers.
_NUMERIC_FIELDS = (
    "count", "mean_seconds", "jitter_sigma", "drift_sigma", "miss_intensity",
    "mem_stall_fraction", "phase_amplitude", "phase_period",
)


@dataclass(frozen=True)
class TaskClassSpec:
    """One task class of a workload.

    Parameters
    ----------
    name:
        Function name (the class identity the profiler groups by).
    count:
        Tasks of this class per batch.
    mean_seconds:
        Mean execution time at ``F_0``, in seconds.
    jitter_sigma:
        Lognormal sigma of per-task variation within a batch.
    drift_sigma:
        Lognormal sigma of the class mean's random walk across batches.
    miss_intensity:
        Simulated cache misses per retired instruction (drives the
        Section IV-D memory-bound classifier).
    mem_stall_fraction:
        Fraction of the task's time that is frequency-*independent* memory
        stall (0 for the CPU-bound Table II benchmarks).
    phase_amplitude, phase_period:
        Slow sinusoidal modulation of the class's per-batch task count:
        ``count_b = round(count * (1 + A * sin(2*pi*b/P)))``. Real iterative
        programs process phases of differing composition — this is why the
        paper's Fig. 8 configurations differ between batches, and why a
        *fixed* asymmetric configuration (WATS in Fig. 7) loses to EEWA's
        per-batch re-adjustment. Amplitude 0 disables phases.
    """

    name: str
    count: int
    mean_seconds: float
    jitter_sigma: float = 0.08
    drift_sigma: float = 0.02
    miss_intensity: float = 0.001
    mem_stall_fraction: float = 0.0
    phase_amplitude: float = 0.0
    phase_period: int = 5

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("task class needs a name")
        # NaN passes the ordered checks below, and an infinite mean, sigma
        # or period fails only later, inside generation.
        for field_name in _NUMERIC_FIELDS:
            if not math.isfinite(getattr(self, field_name)):
                raise WorkloadError(f"class {self.name}: {field_name} must be finite")
        if self.count < 1:
            raise WorkloadError(f"class {self.name}: count must be >= 1")
        if self.mean_seconds <= 0:
            raise WorkloadError(f"class {self.name}: mean_seconds must be positive")
        if self.jitter_sigma < 0 or self.drift_sigma < 0:
            raise WorkloadError(f"class {self.name}: sigmas must be non-negative")
        if not 0 <= self.mem_stall_fraction < 1:
            raise WorkloadError(
                f"class {self.name}: mem_stall_fraction must be in [0, 1)"
            )
        if self.miss_intensity < 0:
            raise WorkloadError(f"class {self.name}: miss_intensity must be >= 0")
        if not 0 <= self.phase_amplitude < 1:
            raise WorkloadError(
                f"class {self.name}: phase_amplitude must be in [0, 1)"
            )
        if self.phase_period < 1:
            raise WorkloadError(f"class {self.name}: phase_period must be >= 1")

    def count_in_batch(self, batch_index: int) -> int:
        """Task count for one batch, after phase modulation (>= 1)."""
        if self.phase_amplitude == 0.0:
            return self.count
        factor = 1.0 + self.phase_amplitude * math.sin(
            2.0 * math.pi * batch_index / self.phase_period
        )
        return max(1, round(self.count * factor))

    @property
    def total_seconds(self) -> float:
        """Aggregate per-batch work of this class at ``F_0``."""
        return self.count * self.mean_seconds


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete iteration-based application description."""

    name: str
    classes: tuple[TaskClassSpec, ...]
    default_batches: int = 12
    description: str = ""

    def __post_init__(self) -> None:
        if not self.classes:
            raise WorkloadError(f"workload {self.name} has no task classes")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise WorkloadError(f"workload {self.name} has duplicate class names")
        if self.default_batches < 1:
            raise WorkloadError("default_batches must be >= 1")

    @property
    def tasks_per_batch(self) -> int:
        return sum(c.count for c in self.classes)

    @property
    def work_per_batch(self) -> float:
        """Total per-batch work in seconds at ``F_0``."""
        return sum(c.total_seconds for c in self.classes)

    def utilization(self, num_cores: int) -> float:
        """Rough fraction of machine capacity the batch needs, assuming the
        iteration time is bound by the longest class task.

        This is the knob the benchmark calibration turns: low utilisation is
        the slack EEWA converts into energy savings (Fig. 3 discussion).
        """
        longest = max(c.mean_seconds for c in self.classes)
        return self.work_per_batch / (num_cores * longest)

    def class_named(self, name: str) -> TaskClassSpec:
        for c in self.classes:
            if c.name == name:
                return c
        raise WorkloadError(f"workload {self.name} has no class {name!r}")


def scaled(spec: WorkloadSpec, factor: float, *, name: str | None = None) -> WorkloadSpec:
    """Scale every class mean by ``factor`` (bigger/smaller problem sizes)."""
    if factor <= 0:
        raise WorkloadError("scale factor must be positive")
    return WorkloadSpec(
        name=name or f"{spec.name}x{factor:g}",
        classes=tuple(
            TaskClassSpec(
                name=c.name,
                count=c.count,
                mean_seconds=c.mean_seconds * factor,
                jitter_sigma=c.jitter_sigma,
                drift_sigma=c.drift_sigma,
                miss_intensity=c.miss_intensity,
                mem_stall_fraction=c.mem_stall_fraction,
                phase_amplitude=c.phase_amplitude,
                phase_period=c.phase_period,
            )
            for c in spec.classes
        ),
        default_batches=spec.default_batches,
        description=spec.description,
    )
