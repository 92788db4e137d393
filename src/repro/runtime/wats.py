"""WATS: Workload-Aware Task Scheduling on fixed asymmetric machines.

The paper's third comparator (Section IV-A, citing Chen et al., IPDPS 2012):
a near-optimal work-stealing scheduler for asymmetric multi-cores that
introduced the *rob-the-weaker-first* principle EEWA reuses. WATS:

* runs on a **fixed** frequency configuration — it never touches DVFS
  ("the preference lists of cores do not change since the frequencies of
  all the cores do not change at all", Section V);
* classifies tasks by profiled workload history and allocates heavy task
  classes to fast core groups, proportionally to each group's computational
  capacity;
* balances the remainder with preference-based stealing, exactly the
  machinery EEWA borrows (shared in
  :class:`~repro.runtime.grouped.GroupedStealingPolicy`).

In Fig. 7 the fixed configuration is the modal per-batch configuration that
EEWA chose for the benchmark — the fairest possible asymmetric layout.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cgroups import CGroup, CGroupPlan
from repro.core.profiler import OnlineProfiler
from repro.errors import ConfigurationError
from repro.runtime.grouped import GroupedStealingPolicy
from repro.runtime.policy import BatchAdjustment
from repro.runtime.task import Task


def plan_from_levels(
    core_levels: Sequence[int], machine=None
) -> CGroupPlan:
    """Build a (classless) c-group plan from a fixed per-core level vector.

    ``core_levels`` holds each core's level *local to its own ladder*. On a
    heterogeneous machine (``machine`` given and multi-type) cores sharing
    a numeric level but differing in type run at different operating points
    and must land in different c-groups, so grouping is by global
    operating-point index; homogeneous machines keep the historical
    group-by-level path (identical results, ``op_index`` left unset).
    """
    if not core_levels:
        raise ConfigurationError("core_levels must be non-empty")
    group_of_core = [0] * len(core_levels)
    groups: list[CGroup] = []
    if machine is not None and machine.is_heterogeneous:
        scale = machine.scale
        ops = [
            scale.index_for(machine.core_type_of(c), lvl)
            for c, lvl in enumerate(core_levels)
        ]
        for gidx, op in enumerate(sorted(set(ops))):  # ascending = fastest first
            ids = tuple(c for c, o in enumerate(ops) if o == op)
            groups.append(
                CGroup(
                    index=gidx,
                    level=scale.type_level_of(op),
                    core_ids=ids,
                    op_index=op,
                )
            )
            for cid in ids:
                group_of_core[cid] = gidx
    else:
        distinct = sorted(set(core_levels))  # ascending index = fastest first
        for gidx, level in enumerate(distinct):
            ids = tuple(c for c, lvl in enumerate(core_levels) if lvl == level)
            groups.append(CGroup(index=gidx, level=level, core_ids=ids))
            for cid in ids:
                group_of_core[cid] = gidx
    return CGroupPlan(
        core_levels=tuple(core_levels),
        groups=tuple(groups),
        class_to_group={},
        group_of_core=tuple(group_of_core),
    )


def allocate_classes_by_capacity(
    plan: CGroupPlan,
    classes: Sequence[tuple[str, float]],
    group_capacity: Sequence[float],
) -> dict[str, int]:
    """Greedy heavy-to-fast allocation of classes to groups.

    ``classes`` is (function, total_workload) sorted heaviest-first;
    ``group_capacity`` is each group's aggregate compute capacity
    (sum of relative core speeds), fastest group first. Classes fill groups
    in order, moving to the next group once the current one's proportional
    share of the total workload is consumed.
    """
    total_work = sum(w for _, w in classes)
    total_cap = sum(group_capacity)
    if total_work <= 0 or total_cap <= 0:
        return {name: 0 for name, _ in classes}

    allocation: dict[str, int] = {}
    group = 0
    consumed = 0.0
    budget = total_work * group_capacity[0] / total_cap
    for name, work in classes:
        # Midpoint rule: a class belongs to the next group once its centre
        # of mass crosses the current group's cumulative capacity share —
        # plain >= would let one heavy class marginally under-fill the fast
        # group and drag every lighter class in with it.
        while group < len(group_capacity) - 1 and consumed + work / 2 > budget + 1e-12:
            group += 1
            budget += total_work * group_capacity[group] / total_cap
        allocation[name] = group
        consumed += work
    return allocation


class WATSScheduler(GroupedStealingPolicy):
    """History-based workload-aware stealing on a fixed configuration."""

    name = "wats"

    def __init__(self, core_levels: Sequence[int]) -> None:
        super().__init__()
        self._core_levels = tuple(int(v) for v in core_levels)
        self.profiler: Optional[OnlineProfiler] = None
        self._batch_start = 0.0

    def on_program_start(self) -> BatchAdjustment:
        ctx = self._require_ctx()
        if len(self._core_levels) != ctx.machine.num_cores:
            raise ConfigurationError(
                f"core_levels has {len(self._core_levels)} entries for "
                f"{ctx.machine.num_cores} cores"
            )
        for core_id, level in enumerate(self._core_levels):
            ctx.machine.ladder_of(core_id).validate_index(level)
        self.profiler = OnlineProfiler(scale=ctx.machine.scale)
        self._install_plan(plan_from_levels(self._core_levels, machine=ctx.machine))
        return BatchAdjustment(frequency_levels=list(self._core_levels))

    def on_batch_start(self, batch, tasks) -> None:
        self._batch_start = self._require_ctx().now()
        super().on_batch_start(batch, tasks)

    def on_task_complete(self, core_id: int, task: Task) -> None:
        assert self.profiler is not None
        level = task.executed_level
        assert level is not None
        core_types = self._core_types
        core_type = None if core_types is None else core_types[core_id]
        self.profiler.observe(
            task.function, task.elapsed, level, task.spec.counters, core_type
        )

    def on_batch_end(self, batch_index: int) -> None:
        """Re-derive the class allocation from this batch's history."""
        ctx = self._require_ctx()
        profiler = self.profiler
        assert profiler is not None
        plan = self.plan

        classes = [
            (c.function, c.total_workload) for c in profiler.classes_by_workload()
        ]
        capacities = [
            sum(ctx.machine.scale.relative_speed(g.rank) for _ in g.core_ids)
            for g in plan.groups
        ]
        class_to_group = allocate_classes_by_capacity(plan, classes, capacities)
        class_workloads = {
            c.function: c.mean_workload for c in profiler.classes_by_workload()
        }
        if self._ideal_time is None and batch_index == 0:
            # WATS has no explicit T; use the first batch's duration as the
            # criticality-guard budget, like EEWA does.
            self._ideal_time = ctx.now() - self._batch_start
        self._install_plan(
            CGroupPlan(
                core_levels=plan.core_levels,
                groups=plan.groups,
                class_to_group=class_to_group,
                group_of_core=plan.group_of_core,
            ),
            class_workloads=class_workloads,
            ideal_time=self._ideal_time,
        )
        profiler.reset_batch()
        return None

    def state_fingerprint(self) -> Optional[str]:
        """Grouped fingerprint plus the profiler's accumulator state.

        ``_batch_start`` is excluded: it is overwritten in every
        ``on_batch_start`` before its only read (the batch-0 ideal-time
        derivation), so its boundary value never feeds a decision.
        """
        base = super().state_fingerprint()
        if base is None or self.profiler is None:
            return None
        return f"{base}:profiler={self.profiler.state_fingerprint()}"
