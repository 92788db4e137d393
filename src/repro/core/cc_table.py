"""Core-Count (CC) table construction — Table I of the paper.

For ``k`` task classes (heaviest first) and ``r`` operating points (fastest
first), ``CC[j][i]`` is the number of cores at operating point ``j`` needed
to finish every task of class ``TC_i`` within the ideal iteration time
``T``:

``CC[0][i] = n_i * w_i / T``      (cores at the fastest operating point)
``CC[j][i] = (S_0 / S_j) * CC[0][i]``   (slower cores, proportionally more)

where ``S_j`` is the operating point's effective speed. On a homogeneous
machine the operating points are exactly the frequency ladder and this is
the paper's ``CC[j][i] = (F_0 / F_j) * CC[0][i]`` verbatim; on a
heterogeneous machine the rows cover the merged per-type ladders, so the
shape is ``|OP| x k`` rather than ``r x k``.

Entries are real-valued; integer rounding happens later when cores are
actually allocated to c-groups (:mod:`repro.core.cgroups`), mirroring the
paper's example table in Fig. 3 which happens to be integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import SearchError
from repro.core.profiler import TaskClassStats
from repro.machine.operating_point import OperatingPointSpace

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CCTable:
    """An ``|OP| x k`` core-count table bound to its classes and scale.

    ``rows[j][i]`` is ``CC[j][i]`` as a plain Python float. The adjuster
    builds and searches tables of 2-3 classes x a handful of operating
    points once per batch, where NumPy's per-array and per-element costs
    outweigh the arithmetic; Python floats do the same IEEE operations.
    :attr:`values`, :meth:`row` and :meth:`column` build NumPy arrays on
    demand for readers outside the decision path, and import NumPy only
    when called: no cell imports it.
    """

    scale: OperatingPointSpace
    class_names: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    ideal_time: float

    def __post_init__(self) -> None:
        r, k = len(self.rows), len(self.class_names)
        if r != self.scale.r:
            raise SearchError(f"CC table has {r} rows for {self.scale.r} frequencies")
        if k == 0:
            raise SearchError("CC table needs at least one task class")
        for row in self.rows:
            if len(row) != k:
                raise SearchError(f"CC table has {len(row)} columns for {k} classes")
            for value in row:
                if value < 0:
                    raise SearchError("CC table entries must be non-negative")

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return len(self.class_names)

    @property
    def values(self) -> np.ndarray:
        """The table as a new ``(r, k)`` float64 array."""
        import numpy as np

        return np.array(self.rows, dtype=np.float64)

    def __getitem__(self, ji: tuple[int, int]) -> float:
        j, i = ji
        return self.rows[j][i]

    def column(self, i: int) -> np.ndarray:
        import numpy as np

        return np.array([row[i] for row in self.rows], dtype=np.float64)

    def row(self, j: int) -> np.ndarray:
        import numpy as np

        return np.array(self.rows[j], dtype=np.float64)

    def fastest_row_total(self) -> float:
        """Sum of row ``F_0`` — cores needed if everything ran fast.

        The paper (Fig. 3 discussion) observes this can be far below ``m``
        when workloads are imbalanced; the gap is exactly the slack EEWA
        converts into energy savings. No decision reads it, so it keeps
        NumPy's pairwise sum: from 8 classes up, a left-to-right loop
        would round differently.
        """
        import numpy as np

        return float(np.sum(self.rows[0]))


def _floor(x: float) -> float:
    """``np.floor`` on one float: ``math.floor`` as a float, and ``inf``
    and ``nan`` passed through where ``math.floor`` would raise."""
    return float(math.floor(x)) if math.isfinite(x) else x


def _ceil(x: float) -> float:
    """``np.ceil`` on one float (see :func:`_floor`)."""
    return float(math.ceil(x)) if math.isfinite(x) else x


#: CC construction modes. ``"fluid"`` is the paper's Table I formula, which
#: treats a class's workload as infinitely divisible. ``"discrete"`` accounts
#: for task granularity: a class of ``n`` tasks each taking ``t`` seconds at
#: level ``j`` needs ``ceil(n / floor(T / t))`` cores, and a level where a
#: single task exceeds ``T`` is infeasible (``inf``). The paper's testbed
#: tolerated the fluid approximation; our simulator honestly charges
#: granularity, so the reproduction defaults to ``"discrete"`` (see
#: DESIGN.md's ablation list — the fluid mode shows the degradation the
#: approximation causes).
CC_MODES = ("fluid", "discrete")


#: Default jitter headroom for discrete-mode feasibility: a level is usable
#: for a class only if a single task fits in ``T / (1 + headroom)`` — tasks
#: jitter batch to batch, and a class whose per-task time exactly equals the
#: budget will routinely overshoot it.
DEFAULT_HEADROOM = 0.10


def build_cc_table(
    classes: Sequence[TaskClassStats],
    scale: OperatingPointSpace,
    ideal_time: float,
    *,
    mode: str = "fluid",
    headroom: float = DEFAULT_HEADROOM,
) -> CCTable:
    """Construct the CC table from profiled task classes.

    ``classes`` must be ordered heaviest-first (use
    :meth:`~repro.core.profiler.OnlineProfiler.classes_by_workload`); the
    order is validated because the k-tuple search's monotonicity constraint
    assumes it.
    """
    if mode not in CC_MODES:
        raise SearchError(f"unknown CC mode {mode!r}; expected one of {CC_MODES}")
    if not classes:
        raise SearchError("cannot build a CC table with no task classes")
    if ideal_time <= 0:
        raise SearchError(f"ideal time must be positive, got {ideal_time}")
    workloads = [c.mean_workload for c in classes]
    if any(a < b - 1e-12 for a, b in zip(workloads, workloads[1:])):
        raise SearchError("task classes must be sorted by mean workload, heaviest first")

    # CC[0][i] = n_i * w_i / T, and CC[j][i] = (F_0/F_j) * CC[0][i].
    fastest_row = [c.total_workload / ideal_time for c in classes]
    slowdowns = [scale.slowdown(j) for j in range(scale.r)]

    if mode == "fluid":
        rows = [[s * f for f in fastest_row] for s in slowdowns]
    else:
        if headroom < 0:
            raise SearchError("headroom must be non-negative")
        factor = 1.0 + headroom
        rows = []
        for s in slowdowns:
            row = []
            for c in classes:
                task_time = c.mean_workload * s  # per-task seconds at this level
                if task_time <= 0:
                    row.append(0.0)
                elif task_time * factor > ideal_time:
                    row.append(math.inf)  # one task alone blows the budget
                else:
                    # Pack against a deflated budget: per-task times jitter
                    # batch to batch, so planning to land exactly on T
                    # systematically overruns it.
                    per_core = _floor(ideal_time / max(task_time * factor, 1e-300))
                    row.append(_ceil(float(c.count) / per_core))
            rows.append(row)
        # A class that no longer fits T even at F_0 (workload drifted past
        # the first batch's level) must still be schedulable — F_0 is the
        # best the machine can do, so pin its F_0 demand to the fluid core
        # count instead of abandoning the whole search to the fallback.
        first = rows[0]
        for i, c in enumerate(classes):
            if not math.isfinite(first[i]):
                first[i] = min(_ceil(fastest_row[i]), max(1.0, float(c.count)))

    return CCTable(
        scale=scale,
        class_names=tuple(c.function for c in classes),
        rows=tuple(map(tuple, rows)),
        ideal_time=ideal_time,
    )


def cc_table_from_values(
    values: Sequence[Sequence[float]],
    scale: OperatingPointSpace,
    *,
    class_names: Sequence[str] | None = None,
    ideal_time: float = 1.0,
) -> CCTable:
    """Build a CC table directly from numbers (tests, the Fig. 3 example)."""
    import numpy as np

    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 2:
        raise SearchError("CC values must be a 2-D array")
    k = array.shape[1]
    names = tuple(class_names) if class_names is not None else tuple(f"TC{i}" for i in range(k))
    return CCTable(
        scale=scale,
        class_names=names,
        rows=tuple(map(tuple, array.tolist())),
        ideal_time=ideal_time,
    )
