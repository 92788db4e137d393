"""MIT-Cilk-style random work-stealing baseline.

This is the paper's primary baseline ("Cilk"): every core runs at the
highest frequency ``F_0`` for the whole execution, each core owns a single
task pool, idle cores steal from uniformly random victims, and — crucially
for the energy story — idle cores *spin at full power* until the program
terminates (Section II: "the idle cores have to be busily trying to steal
new tasks until all cores finish their tasks").
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime.policy import (
    Action,
    BatchAdjustment,
    RunTask,
    SchedulerPolicy,
)
from repro.runtime.pools import PoolGrid
from repro.runtime.task import Batch, Task
from repro.sim.fingerprint import digest


class CilkScheduler(SchedulerPolicy):
    """Classic random work-stealing with all cores pinned at ``F_0``.

    Parameters
    ----------
    placement:
        How a batch's root tasks reach the pools: ``"round_robin"`` spreads
        them across cores (models a parallel spawn loop), ``"single_core"``
        puts them all on core 0 and lets stealing distribute them (the
        strict Cilk spawn-tree-root behaviour; slower to balance).
    core_levels:
        Optional fixed per-core DVFS levels. Default pins every core at
        ``F_0``; Fig. 7 runs Cilk on the *asymmetric* configuration EEWA
        chose, which is where random stealing loses badly (heavy tasks land
        on slow cores).
    """

    name = "cilk"

    def __init__(
        self,
        placement: str = "round_robin",
        *,
        core_levels: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__()
        if placement not in ("round_robin", "single_core"):
            raise ValueError(f"unknown placement {placement!r}")
        self._placement = placement
        self._core_levels = list(core_levels) if core_levels is not None else None
        self._grid: Optional[PoolGrid] = None

    # -- lifecycle ----------------------------------------------------------

    def on_program_start(self) -> BatchAdjustment:
        ctx = self._require_ctx()
        observer = getattr(ctx, "pool_observer", lambda: None)()
        self._grid = PoolGrid(ctx.machine.num_cores, 1, observer=observer)
        levels = self._core_levels
        if levels is None:
            # All cores pinned at the fastest frequency for the entire run.
            levels = [0] * ctx.machine.num_cores
        elif len(levels) != ctx.machine.num_cores:
            raise ValueError(
                f"core_levels has {len(levels)} entries for "
                f"{ctx.machine.num_cores} cores"
            )
        return BatchAdjustment(frequency_levels=list(levels))

    def on_batch_start(self, batch: Batch, tasks: Sequence[Task]) -> None:
        assert self._grid is not None
        ctx = self._require_ctx()
        n = self._grid.num_cores
        # Random per-batch rotation: a real spawn loop's tasks reach cores
        # via stealing, so which core ends up with which slice of the spawn
        # order is effectively random. A fixed rotation would correlate the
        # spawn order's tail (the heavy tasks) with specific core ids —
        # flattering or damning on asymmetric machines by pure alignment.
        offset = ctx.rng_choice("cilk.place", range(n))
        for i, task in enumerate(tasks):
            core = (i + offset) % n if self._placement == "round_robin" else 0
            self._grid.push(core, 0, task)

    def on_spawn(self, core_id: int, task: Task) -> None:
        assert self._grid is not None
        self._grid.push(core_id, 0, task)

    def state_fingerprint(self) -> Optional[str]:
        """Digest placement mode, pinned levels, and pool residue.

        Cilk draws from the ``cilk.place`` stream every batch, so its RNG
        position always advances and fast-forward never engages in
        practice; the fingerprint still exists so the equality machinery
        (and the conformance parity check) treats it uniformly.
        """
        if self._grid is None:
            return None
        return digest(
            [
                "cilk-policy-state",
                self.name,
                self._placement,
                self._core_levels,
                self._grid.state_fingerprint(),
            ]
        )

    # -- scheduling ---------------------------------------------------------

    def next_action(self, core_id: int) -> Action:
        grid = self._grid
        assert grid is not None
        stats = self.stats

        task = grid.pop_local(core_id, 0)
        if task is not None:
            stats.local_pops += 1
            stats.tasks_executed += 1
            return RunTask(task, acquire_cycles=self._pop_cycles)

        victims = grid.victims_with_work(0, exclude=core_id)
        if victims:
            victim = self._require_ctx().rng_choice("cilk.victim", victims)
            stolen = grid.steal(victim, 0)
            if stolen is not None:
                stats.tasks_stolen += 1
                stats.tasks_executed += 1
                return RunTask(stolen, acquire_cycles=self._steal_cycles)

        stats.failed_scans += 1
        return self._wait
