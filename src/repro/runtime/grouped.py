"""Shared machinery for c-group-aware schedulers (EEWA and WATS).

Implements the runtime architecture of the paper's Fig. 4/5: every core owns
one task pool per c-group, tasks are pushed into the pool of the group
their class is allocated to (unknown classes go to the fastest group), and
idle cores escalate through groups in rob-the-weaker-first preference order,
stealing randomly *within* a group before moving to the next.

The concrete policies differ only in where the :class:`CGroupPlan` comes
from: EEWA recomputes it every batch via the frequency adjuster; WATS keeps
frequencies fixed and only re-derives the class allocation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.cgroups import CGroupPlan
from repro.core.preference import preference_lists
from repro.runtime.policy import Action, RunTask, SchedulerPolicy
from repro.runtime.pools import PoolGrid
from repro.runtime.task import Batch, Task
from repro.sim.fingerprint import digest


class GroupedStealingPolicy(SchedulerPolicy):
    """Base policy: multi-pool placement + preference-based stealing."""

    name = "grouped"

    def __init__(self) -> None:
        super().__init__()
        self._grid: Optional[PoolGrid] = None
        self._plan: Optional[CGroupPlan] = None
        self._prefs: list[tuple[int, ...]] = []
        self._rr_cursor: dict[int, int] = {}
        self._group_max_workload: Optional[list[float]] = None
        self._ideal_time: Optional[float] = None
        #: Each core's type on a heterogeneous machine, ``None`` on a
        #: homogeneous one; bound when the first plan is installed.
        self._core_types: Optional[tuple[str, ...]] = None
        #: Each installed group's global operating-point rank.
        self._group_ranks: tuple[int, ...] = ()

    # -- plan management ------------------------------------------------------

    def _install_plan(
        self,
        plan: CGroupPlan,
        *,
        class_workloads: Optional[dict[str, float]] = None,
        ideal_time: Optional[float] = None,
    ) -> None:
        """Adopt a new c-group plan; renew pools and preference lists.

        ``class_workloads`` (mean normalised workload per class) and
        ``ideal_time`` arm the *criticality guard*: a slow core skips
        stealing from a faster group whose heaviest class, run at the
        thief's speed, would blow the iteration budget — the Fig. 1(c)
        mis-schedule the paper's preference scheduler exists to avoid.
        """
        ctx = self._require_ctx()
        if self._grid is None:
            observer = getattr(ctx, "pool_observer", lambda: None)()
            core_types = (
                tuple(
                    ctx.machine.core_type_of(i)
                    for i in range(ctx.machine.num_cores)
                )
                if ctx.machine.is_heterogeneous
                else None
            )
            self._grid = PoolGrid(
                ctx.machine.num_cores,
                ctx.machine.r,
                observer=observer,
                core_types=core_types,
            )
            self._core_types = core_types
        self._plan = plan
        self._group_ranks = tuple(g.rank for g in plan.groups)
        self._prefs = preference_lists(plan.num_groups)
        self._rr_cursor = {g.index: 0 for g in plan.groups}
        self._group_max_workload = None
        self._ideal_time = ideal_time
        if class_workloads and ideal_time:
            per_group = [0.0] * plan.num_groups
            for name, g in plan.class_to_group.items():
                per_group[g] = max(per_group[g], class_workloads.get(name, 0.0))
            self._group_max_workload = per_group
        trace_plan = getattr(ctx, "trace_plan", None)
        if trace_plan is not None:
            trace_plan(
                plan.group_of_core, tuple(g.level for g in plan.groups)
            )

    def _steal_would_blow_budget(self, thief_rank: int, group_index: int) -> bool:
        """True when the group's heaviest class cannot fit the iteration
        budget at the thief's speed (Fig. 1(c) guard).

        ``thief_rank`` is the thief group's global operating-point index
        (== its frequency level on homogeneous machines), so the slowdown
        accounts for per-type IPC as well as frequency.
        """
        if self._group_max_workload is None or self._ideal_time is None:
            return False
        ctx = self._require_ctx()
        heaviest = self._group_max_workload[group_index]
        return heaviest * ctx.machine.scale.slowdown(thief_rank) > self._ideal_time

    def state_fingerprint(self) -> Optional[str]:
        """Digest the installed plan, steal cursors, guard state and pools.

        Round-robin cursors are digested *modulo group size*: after placing
        a whole batch they may differ by a full number of laps between
        boundaries, yet the next placement is identical — only the residue
        matters. Residual pooled tasks enter via the grid fingerprint, so a
        batch that left work queued never matches a clean boundary.
        """
        if self._plan is None or self._grid is None:
            return None
        plan = self._plan
        cursors = tuple(
            self._rr_cursor[g.index] % len(g.core_ids) for g in plan.groups
        )
        return digest(
            [
                "grouped-policy-state",
                self.name,
                tuple(plan.group_of_core),
                tuple((g.index, g.level, tuple(g.core_ids)) for g in plan.groups),
                tuple(sorted(plan.class_to_group.items())),
                cursors,
                self._group_max_workload,
                self._ideal_time,
                self._grid.state_fingerprint(),
            ]
        )

    @property
    def plan(self) -> CGroupPlan:
        if self._plan is None:
            raise RuntimeError(f"{self.name}: no c-group plan installed")
        return self._plan

    def _group_for_function(self, function: str) -> int:
        """Group holding ``function``'s class; unknown classes go fastest.

        Paper: "if there is no existing task class for γ, it will be pushed
        in the task pool of the fastest c-group" — avoids running unknown
        (possibly heavy) work on slow cores.
        """
        plan = self.plan
        return plan.class_to_group.get(function, plan.fastest_group_index())

    def _place_in_group(self, task: Task, group_index: int) -> None:
        """Round-robin a task across the cores of its group."""
        assert self._grid is not None and self._plan is not None
        group = self._plan.groups[group_index]
        cursor = self._rr_cursor[group_index]
        core_id = group.core_ids[cursor % len(group.core_ids)]
        self._rr_cursor[group_index] = cursor + 1
        self._grid.push(core_id, group_index, task)

    # -- SchedulerPolicy hooks ---------------------------------------------------

    def on_batch_start(self, batch: Batch, tasks: Sequence[Task]) -> None:
        for task in tasks:
            self._place_in_group(task, self._group_for_function(task.function))

    def on_spawn(self, core_id: int, task: Task) -> None:
        """A task spawned mid-execution lands in the spawning core's own
        pool for the class's group (Fig. 4 semantics)."""
        assert self._grid is not None
        group_index = self._group_for_function(task.function)
        self._grid.push(core_id, group_index, task)

    def next_action(self, core_id: int) -> Action:
        grid = self._grid
        assert grid is not None
        plan = self._plan
        assert plan is not None
        stats = self.stats
        own_group = plan.group_of_core[core_id]

        ranks = self._group_ranks
        thief_rank = ranks[own_group]
        for group_index in self._prefs[own_group]:
            # A slower core helping out a faster group must not pick up a
            # task too heavy to finish within the iteration budget. Group
            # speed comparisons use the global operating-point rank so they
            # stay meaningful across core types.
            if (
                group_index != own_group
                and ranks[group_index] < thief_rank
                and self._steal_would_blow_budget(thief_rank, group_index)
            ):
                stats.extra["guarded_steals"] = stats.extra.get("guarded_steals", 0) + 1
                continue
            # Local pool for this group first (lock-free pop).
            task = grid.pop_local(core_id, group_index)
            if task is not None:
                stats.local_pops += 1
                stats.tasks_executed += 1
                if group_index != own_group:
                    stats.cross_group_steals += 1
                return RunTask(task, acquire_cycles=self._pop_cycles)
            # Then random stealing within the group.
            victims = grid.victims_with_work(group_index, exclude=core_id)
            if victims:
                victim = self._require_ctx().rng_choice(f"{self.name}.victim", victims)
                stolen = grid.steal(victim, group_index)
                if stolen is not None:
                    stats.tasks_stolen += 1
                    stats.tasks_executed += 1
                    if group_index != own_group:
                        stats.cross_group_steals += 1
                    return RunTask(stolen, acquire_cycles=self._steal_cycles)
            # Group drained everywhere -> move down the preference list.

        stats.failed_scans += 1
        return self._wait
