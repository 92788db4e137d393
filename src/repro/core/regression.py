"""Regression-modelled CC tables for memory-bound classes.

This implements the paper's stated future work (Section IV-D): "By
analyzing the execution time of memory-bound tasks on cores of different
frequencies through machine learning, it is possible for EEWA to create a
correct CC table for memory-bound applications."

We use the natural two-parameter model

``t(f) = a / f + b``

where ``a`` is frequency-scalable CPU cycles and ``b`` the
frequency-invariant memory-stall time. Given per-class observations of
``(frequency, elapsed)`` pairs — which EEWA accumulates for free once
batches have executed on heterogeneous c-groups — ordinary least squares on
the design matrix ``[1/f, 1]`` recovers ``(a, b)``, and the class's core
demand at level ``j`` becomes ``n * t(F_j) / T`` instead of the naive
``(F_0/F_j) * n * t(F_0) / T``.

With only one distinct frequency observed the system is underdetermined;
we then fall back to the CPU-bound assumption (``b = 0``), which is exactly
the paper's baseline behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cc_table import CCTable
from repro.errors import ProfilingError
from repro.machine.operating_point import OperatingPointSpace

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class FrequencyTimeModel:
    """Fitted per-class execution-time model ``t(f) = a/f + b``."""

    cpu_cycles: float  # a
    stall_seconds: float  # b
    observations: int
    distinct_frequencies: int

    def predict(self, frequency: float) -> float:
        if frequency <= 0:
            raise ProfilingError("frequency must be positive")
        return self.cpu_cycles / frequency + self.stall_seconds

    @property
    def is_degenerate(self) -> bool:
        """True when the fit had no frequency diversity (b forced to 0)."""
        return self.distinct_frequencies < 2


def fit_frequency_time_model(
    frequencies: np.ndarray | list[float],
    elapsed: np.ndarray | list[float],
) -> FrequencyTimeModel:
    """Least-squares fit of ``t(f) = a/f + b`` with non-negativity clamping."""
    import numpy as np

    f = np.asarray(frequencies, dtype=np.float64)
    t = np.asarray(elapsed, dtype=np.float64)
    if f.shape != t.shape or f.ndim != 1 or f.size == 0:
        raise ProfilingError("need matching, non-empty 1-D observation arrays")
    if np.any(f <= 0) or np.any(t < 0):
        raise ProfilingError("frequencies must be positive and times non-negative")

    distinct = int(np.unique(f).size)
    if distinct < 2:
        # Underdetermined: assume pure CPU-bound (b = 0), a = mean(t * f).
        a = float(np.mean(t * f))
        return FrequencyTimeModel(
            cpu_cycles=a, stall_seconds=0.0, observations=int(f.size),
            distinct_frequencies=distinct,
        )

    design = np.column_stack([1.0 / f, np.ones_like(f)])
    coef, *_ = np.linalg.lstsq(design, t, rcond=None)
    a, b = float(coef[0]), float(coef[1])
    # Physical clamps: neither component can be negative. Re-solve the
    # constrained corner cases analytically.
    if a < 0:
        a, b = 0.0, float(np.mean(t))
    elif b < 0:
        a, b = float(np.mean(t * f)), 0.0
    return FrequencyTimeModel(
        cpu_cycles=a, stall_seconds=b, observations=int(f.size),
        distinct_frequencies=distinct,
    )


@dataclass
class RegressionProfiler:
    """Accumulates per-class ``(effective speed, elapsed)`` observations.

    Samples are keyed by the operating point's *effective* hertz (frequency
    times IPC scale): two operating points of different core types sharing
    an electrical frequency retire cycles at different rates, and the model
    ``t(f) = a/f + b`` cares about the retire rate. On homogeneous machines
    the effective speed is bitwise the frequency.
    """

    scale: OperatingPointSpace
    _samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def observe(
        self, function: str, elapsed: float, level: int, core_type: str | None = None
    ) -> None:
        if core_type is None:
            freq = self.scale[self.scale.validate_index(level)]
        else:
            freq = self.scale.effective(self.scale.index_for(core_type, level))
        self._samples.setdefault(function, []).append((freq, elapsed))

    def sample_count(self, function: str) -> int:
        return len(self._samples.get(function, ()))

    def fit(self, function: str) -> FrequencyTimeModel:
        samples = self._samples.get(function)
        if not samples:
            raise ProfilingError(f"no observations for class {function!r}")
        f, t = zip(*samples)
        return fit_frequency_time_model(list(f), list(t))

    def functions(self) -> list[str]:
        return sorted(self._samples)


def build_regression_cc_table(
    profiler: RegressionProfiler,
    class_counts: dict[str, int],
    scale: OperatingPointSpace,
    ideal_time: float,
    *,
    headroom: float = 0.10,
) -> CCTable:
    """CC table whose rows come from fitted ``t(f)`` models, not Eq. 1 scaling.

    ``class_counts`` maps function name -> number of tasks ``n`` expected in
    the next batch. Classes are ordered heaviest-first by their predicted
    workload at ``F_0`` so the k-tuple monotonicity constraint still applies.

    Entries use the same granularity-aware (discrete) packing as the main
    CC table: ``ceil(n / floor(T / (t_pred * (1 + headroom))))`` cores, with
    a level marked infeasible (``inf``) when a single predicted task blows
    the budget, and the ``F_0`` column clamped so the class always remains
    schedulable.
    """
    import numpy as np

    if ideal_time <= 0:
        raise ProfilingError("ideal_time must be positive")
    if headroom < 0:
        raise ProfilingError("headroom must be non-negative")
    names = [fn for fn in profiler.functions() if fn in class_counts]
    if not names:
        raise ProfilingError("no overlapping classes between profiler and counts")

    models = {fn: profiler.fit(fn) for fn in names}
    # Predictions evaluate the model at each operating point's *effective*
    # speed — bitwise the electrical frequency on homogeneous machines.
    names.sort(key=lambda fn: (-models[fn].predict(scale.effective(0)), fn))

    r = scale.r
    values = np.zeros((r, len(names)), dtype=np.float64)
    for i, fn in enumerate(names):
        n = class_counts[fn]
        for j in range(r):
            t_pred = models[fn].predict(scale.effective(j)) * (1.0 + headroom)
            if t_pred <= 0:
                values[j, i] = 0.0
            elif t_pred > ideal_time:
                values[j, i] = np.inf
            else:
                per_core = int(ideal_time / t_pred)
                values[j, i] = np.ceil(n / per_core)
        if not np.isfinite(values[0, i]):
            fluid = n * models[fn].predict(scale.effective(0)) / ideal_time
            values[0, i] = min(float(np.ceil(fluid)), float(max(1, n)))

    return CCTable(
        scale=scale,
        class_names=tuple(names),
        rows=tuple(map(tuple, values.tolist())),
        ideal_time=ideal_time,
    )
