"""Cilk-D: Cilk plus naive DVFS on idle cores.

The paper's second baseline (Section IV-A): "In Cilk-D, if a core finds
that there is no task in all the task pools, the core is scaled down to run
at the lowest frequency." When work reappears the core scales back up to
``F_0`` before executing.

Cilk-D is not workload-aware: it only harvests tail-idle energy, after a
realistic detection delay — a real 2014 runtime observed idleness through
repeated failed steal scans and the OS DVFS path (the Linux ondemand
governor of that era sampled every ~10 ms), so a core does not drop its
P-state the instant a queue empties. ``idle_grace_s`` models that reaction
time; it is also what separates Cilk-D from EEWA, which knows *ahead of the
batch* which cores can run slow (the paper reports Cilk-D saving 6.7-12.8%
versus Cilk while EEWA saves a further 2.3-18.4% on top).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime.cilk import CilkScheduler
from repro.runtime.policy import Action, BatchAdjustment, RunTask, SetFrequency, Wait
from repro.runtime.task import Batch, Task

#: Default idle-detection delay before a core drops to the lowest P-state.
DEFAULT_IDLE_GRACE_S = 10e-3


class CilkDScheduler(CilkScheduler):
    """Random work-stealing; persistently idle cores drop to ``F_{r-1}``."""

    name = "cilk-d"

    def __init__(
        self,
        placement: str = "round_robin",
        *,
        idle_grace_s: float = DEFAULT_IDLE_GRACE_S,
    ) -> None:
        super().__init__(placement)
        if idle_grace_s < 0:
            raise ValueError("idle_grace_s must be non-negative")
        self._idle_grace = idle_grace_s
        self._idle_since: dict[int, Optional[float]] = {}
        #: Per core: its ladder's slowest level, bound at program start.
        self._slowest: tuple[int, ...] = ()

    def on_batch_start(self, batch: Batch, tasks: Sequence[Task]) -> None:
        super().on_batch_start(batch, tasks)
        # New work everywhere: idle clocks restart.
        self._idle_since.clear()

    def next_action(self, core_id: int) -> Action:
        ctx = self._require_ctx()
        grid = self._grid
        assert grid is not None

        work_visible = (
            grid.local_len(core_id, 0) > 0 or grid.queued_in_pool_index(0) > 0
        )
        # Decide on the *requested* level: under shared DVFS domains the
        # effective level can be pinned fast by a sibling, and re-requesting
        # the same target forever would livelock.
        level = ctx.requested_level(core_id)
        stats = self.stats

        if work_visible:
            self._idle_since[core_id] = None
            if level != 0:
                # Scale back up before touching the work (the transition
                # costs DVFS latency; the task may be gone when we return).
                stats.extra["dvfs_raises"] = stats.extra.get("dvfs_raises", 0) + 1
                return SetFrequency(0)
            task = grid.pop_local(core_id, 0)
            if task is not None:
                stats.local_pops += 1
                stats.tasks_executed += 1
                return RunTask(task, acquire_cycles=self._pop_cycles)
            victims = grid.victims_with_work(0, exclude=core_id)
            if victims:
                victim = ctx.rng_choice("cilk.victim", victims)
                stolen = grid.steal(victim, 0)
                if stolen is not None:
                    stats.tasks_stolen += 1
                    stats.tasks_executed += 1
                    return RunTask(stolen, acquire_cycles=self._steal_cycles)
            # Visible work evaporated between the check and the steal.

        slowest = self._slowest[core_id]
        if level == slowest:
            stats.failed_scans += 1
            return self._wait

        now = ctx.now()
        idle_since = self._idle_since.get(core_id)
        if idle_since is None:
            self._idle_since[core_id] = now
            idle_since = now
        remaining = self._idle_grace - (now - idle_since)
        # Sub-nanosecond residuals would schedule a same-timestamp retry
        # forever; treat the grace period as elapsed.
        if remaining <= 1e-9:
            stats.extra["dvfs_drops"] = stats.extra.get("dvfs_drops", 0) + 1
            self._idle_since[core_id] = None
            return SetFrequency(slowest)
        stats.failed_scans += 1
        return Wait(retry_after=remaining)

    def on_program_start(self) -> BatchAdjustment:
        self._idle_since.clear()
        # Per-core ladder: on a heterogeneous machine each core type has
        # its own slowest P-state (identical to the machine scale's on
        # homogeneous ones, where ladder_of returns the scale itself).
        machine = self._require_ctx().machine
        self._slowest = tuple(
            machine.ladder_of(i).slowest_index for i in range(machine.num_cores)
        )
        return super().on_program_start()

    def state_fingerprint(self) -> Optional[str]:
        """Cilk fingerprint plus the idle-grace parameter.

        ``_idle_since`` is deliberately excluded: it is cleared in
        ``on_batch_start`` before any read in the new batch, so entries left
        over at a boundary can never influence a future decision. (A timed
        ``Wait`` retry crossing a boundary leaves a CORE_READY event in the
        heap, which already makes that boundary ineligible for
        fast-forward.)
        """
        base = super().state_fingerprint()
        if base is None:
            return None
        return f"{base}:grace={self._idle_grace!r}"
