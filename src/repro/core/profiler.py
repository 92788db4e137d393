"""Online workload profiler.

Section III-A1 of the paper. As tasks retire, the profiler:

* normalises each task's execution time against the fastest frequency
  (Eq. 1: ``w = t * F_i / F_0`` for a task that ran for ``t`` seconds on a
  core at frequency ``F_i``);
* folds it into its *task class* — the running ``TC(f, n, w)`` record keyed
  by function name, updated as ``TC(f, n+1, (n*w + w_task)/(n+1))``;
* accumulates PMU readings (retired instructions, cache misses) so the
  Section IV-D memory-boundness classifier has its signal.

The duration of the first, all-fast batch becomes the *ideal iteration
time* ``T`` that every later batch is budgeted against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ProfilingError
from repro.machine.counters import PerfCounters
from repro.machine.operating_point import OperatingPointSpace


@dataclass
class TaskClassStats:
    """Running statistics for one task class ``TC(f, n, w)``.

    ``function`` is the class identity, ``count`` the number of observed
    tasks ``n``, ``mean_workload`` the running average normalised workload
    ``w`` in seconds-at-the-fastest-operating-point. On heterogeneous
    machines ``counts_by_type`` additionally splits ``n`` by the core type
    that executed each task; on homogeneous machines it stays empty.
    """

    function: str
    count: int = 0
    mean_workload: float = 0.0
    instructions: int = 0
    cache_misses: int = 0
    memory_bound_tasks: int = 0
    counts_by_type: dict[str, int] = field(default_factory=dict)

    def update(
        self,
        workload: float,
        counters: Optional[PerfCounters],
        is_mem: bool,
        core_type: Optional[str] = None,
    ) -> None:
        """Apply the paper's incremental mean update for one retired task."""
        self.mean_workload = (self.count * self.mean_workload + workload) / (self.count + 1)
        self.count += 1
        if counters is not None:
            self.instructions += counters.retired_instructions
            self.cache_misses += counters.cache_misses
        if is_mem:
            self.memory_bound_tasks += 1
        if core_type is not None:
            self.counts_by_type[core_type] = self.counts_by_type.get(core_type, 0) + 1

    @property
    def total_workload(self) -> float:
        """``n * w`` — the class's aggregate normalised work."""
        return self.count * self.mean_workload

    @property
    def miss_intensity(self) -> float:
        if self.instructions == 0:
            return 0.0
        return self.cache_misses / self.instructions


#: Default cache-misses-per-instruction threshold above which a task counts
#: as memory-bound. Roughly one LLC miss per 100 instructions saturates a
#: memory controller on the paper's era of hardware.
DEFAULT_MISS_THRESHOLD = 0.01


@dataclass
class OnlineProfiler:
    """Collects per-batch workload information for the frequency adjuster."""

    scale: OperatingPointSpace
    miss_threshold: float = DEFAULT_MISS_THRESHOLD
    ideal_time: Optional[float] = None
    _classes: dict[str, TaskClassStats] = field(default_factory=dict)
    _tasks_seen: int = 0
    _memory_bound_seen: int = 0

    def __post_init__(self) -> None:
        # ``scale.relative_speed`` of every operating point, built once: the
        # same floats, without a method call and a bounds check per task.
        # A plain attribute, not a field, so it is no part of the profiler's
        # dataclass identity.
        scale = self.scale
        self._speeds = tuple(scale.relative_speed(i) for i in range(scale.r))

    # -- observation ----------------------------------------------------------

    def normalized_workload(
        self, elapsed: float, level: int, core_type: Optional[str] = None
    ) -> float:
        """Eq. 1 against the fastest operating point: ``w = t * S_i / S_0``.

        ``S_i`` is the effective speed of the operating point the task ran
        at: on homogeneous machines (``core_type=None``) ``level`` is the
        global frequency index and this is the paper's ``w = t * F_i / F_0``
        verbatim; on heterogeneous machines ``level`` is local to
        ``core_type``'s ladder and is first resolved to its global
        operating-point index.
        """
        if elapsed < 0:
            raise ProfilingError("elapsed time must be non-negative")
        speeds = self._speeds
        if core_type is None:
            if not 0 <= level < len(speeds):
                # The scale's own bounds error.
                self.scale.validate_index(level)
            index = level
        else:
            index = self.scale.index_for(core_type, level)
        return elapsed * speeds[index]

    def observe(
        self,
        function: str,
        elapsed: float,
        level: int,
        counters: Optional[PerfCounters] = None,
        core_type: Optional[str] = None,
    ) -> TaskClassStats:
        """Record one retired task; returns its (updated) class record."""
        workload = self.normalized_workload(elapsed, level, core_type)
        is_mem = counters is not None and counters.miss_intensity > self.miss_threshold
        stats = self._classes.get(function)
        if stats is None:
            stats = TaskClassStats(function=function)
            self._classes[function] = stats
        stats.update(workload, counters, is_mem, core_type)
        self._tasks_seen += 1
        if is_mem:
            self._memory_bound_seen += 1
        return stats

    def reset_batch(self) -> None:
        """Forget per-batch class statistics (ideal time is retained)."""
        self._classes.clear()
        self._tasks_seen = 0
        self._memory_bound_seen = 0

    # -- queries ----------------------------------------------------------------

    @property
    def tasks_seen(self) -> int:
        return self._tasks_seen

    def has_classes(self) -> bool:
        return bool(self._classes)

    def get_class(self, function: str) -> Optional[TaskClassStats]:
        return self._classes.get(function)

    def classes_by_workload(self) -> list[TaskClassStats]:
        """Task classes sorted by mean workload, heaviest first.

        This is the column order of the CC table (Section III-A2 requires
        ``w_i`` in descending order) — the monotonicity constraint of the
        k-tuple search depends on it. Ties break by function name so the
        order is deterministic.
        """
        return sorted(
            self._classes.values(),
            key=lambda c: (-c.mean_workload, c.function),
        )

    def set_ideal_time(self, duration: float) -> None:
        """Pin the ideal iteration time ``T`` (first-batch duration)."""
        if duration <= 0:
            raise ProfilingError(f"ideal time must be positive, got {duration}")
        self.ideal_time = duration

    def require_ideal_time(self) -> float:
        if self.ideal_time is None:
            raise ProfilingError("ideal iteration time not set (first batch not profiled)")
        return self.ideal_time

    def state_fingerprint(self) -> str:
        """Digest of everything a future adjuster decision can read.

        Covers the pinned ideal time, the global counters, and every class
        accumulator field. ``scale``/``miss_threshold`` are construction
        constants (identical at every boundary of one run) and are covered
        by the policy-level fingerprint's constructor state instead.
        """
        parts = [repr(self.ideal_time), str(self._tasks_seen), str(self._memory_bound_seen)]
        for name in sorted(self._classes):
            c = self._classes[name]
            # The name is length-prefixed: function names may themselves
            # contain ":" or the "\x1f" join byte, and without the prefix
            # two distinct states could serialize identically (e.g. a class
            # named "a:1" vs a class "a" with count 1).
            entry = (
                f"{len(name)}:{name}:{c.count}:{c.mean_workload!r}:{c.instructions}:"
                f"{c.cache_misses}:{c.memory_bound_tasks}"
            )
            # Per-type counts exist only on heterogeneous machines, so
            # appending them conditionally leaves every homogeneous
            # fingerprint string byte-identical to the flat-ladder era.
            if c.counts_by_type:
                entry += f":types={sorted(c.counts_by_type.items())}"
            parts.append(entry)
        return "\x1f".join(parts)

    # -- memory-boundness (Section IV-D) -----------------------------------------

    def memory_bound_fraction(self) -> float:
        """Fraction of observed tasks classified memory-bound."""
        if self._tasks_seen == 0:
            return 0.0
        return self._memory_bound_seen / self._tasks_seen

    def application_is_memory_bound(self, majority: float = 0.5) -> bool:
        """Paper: "if most tasks of an application are memory-bound, the
        application is regarded as memory-bound"."""
        return self.memory_bound_fraction() > majority
