"""The EEWA scheduler policy — the paper's primary contribution.

Processing flow (paper Fig. 2):

* **Batch 0** — all cores at ``F_0``, one c-group, behaviour identical to
  plain work-stealing; the online profiler records every task's execution
  time and PMU counters, and the batch's duration becomes the ideal
  iteration time ``T``.
* **Between batches** — the workload-aware frequency adjuster builds the CC
  table from the just-finished batch, runs Algorithm 1, and emits a
  :class:`~repro.core.cgroups.CGroupPlan`: per-core DVFS levels plus the
  class-to-c-group allocation. The engine applies the DVFS requests (with
  transition latency) and charges the decision overhead (Table III).
* **Batch d (d >= 1)** — tasks are pushed into their class's c-group pools;
  idle cores balance load via preference-based (rob-the-weaker-first)
  stealing.
* **Memory-bound applications** (Section IV-D) — detected after batch 0 by
  cache-miss intensity; EEWA then either falls back to plain work-stealing
  at ``F_0`` (paper behaviour) or, in :attr:`MemoryBoundMode.REGRESSION`
  mode, keeps adjusting using fitted ``t(f) = a/f + b`` models (the paper's
  future work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.adjuster import (
    AdjusterDecision,
    OverheadModel,
    WorkloadAwareFrequencyAdjuster,
)
from repro.core.cgroups import CGroupPlan, uniform_plan
from repro.core.membound import MemoryBoundMode, classify_application
from repro.core.profiler import DEFAULT_MISS_THRESHOLD, OnlineProfiler
from repro.core.regression import RegressionProfiler, build_regression_cc_table
from repro.core.cc_table import CCTable
from repro.core.cgroups import build_cgroup_plan
from repro.core.ktuple import search_ktuple
from repro.runtime.grouped import GroupedStealingPolicy
from repro.runtime.policy import BatchAdjustment
from repro.runtime.task import Batch, Task
from typing import Sequence


@dataclass(frozen=True)
class EEWAConfig:
    """Tunables of the EEWA policy (defaults = paper behaviour)."""

    search: str = "backtracking"
    #: "discrete" (granularity-aware, default) or "fluid" (paper Table I).
    cc_mode: str = "discrete"
    #: Jitter headroom for discrete-mode level feasibility.
    headroom: float = 0.10
    leftover_policy: str = "slowest"
    miss_threshold: float = DEFAULT_MISS_THRESHOLD
    memory_bound_mode: MemoryBoundMode = MemoryBoundMode.FALLBACK
    overhead_model: OverheadModel = field(default_factory=OverheadModel)
    #: Re-profile and re-adjust after every batch (paper behaviour). When
    #: False, the plan from batch 0's profile is frozen — an ablation that
    #: shows why per-batch adaptation matters under workload drift.
    adapt_every_batch: bool = True
    #: Consecutive boundaries a core's DVFS request may be denied (fault
    #: injection) before EEWA stops asking for that core.
    max_dvfs_retries: int = 3
    #: Boundaries a backed-off core sits out before being retargeted.
    dvfs_backoff_batches: int = 4
    #: Consecutive "no feasible k-tuple" searches before EEWA gives up on
    #: planning and degrades to all-``F_0`` work-stealing for good.
    max_search_failures: int = 3


class EEWAScheduler(GroupedStealingPolicy):
    """Energy-Efficient Workload-Aware task scheduling."""

    name = "eewa"

    def __init__(self, config: EEWAConfig | None = None) -> None:
        super().__init__()
        self.config = config or EEWAConfig()
        self.profiler: Optional[OnlineProfiler] = None
        self.regression: Optional[RegressionProfiler] = None
        self.adjuster: Optional[WorkloadAwareFrequencyAdjuster] = None
        self.decisions: list[AdjusterDecision] = []
        self._batch_start_time = 0.0
        self._batch_class_counts: dict[str, int] = {}
        self._memory_bound = False
        self._frozen = False  # plan frozen (fallback or adapt_every_batch=False)
        self._explored = False  # regression mode ran its exploration batch
        # Graceful-degradation state under fault injection: per-core counts
        # of consecutive boundaries whose DVFS request was denied, cores
        # currently backed off (with remaining boundaries), denials arrived
        # since the last boundary, and the consecutive-search-failure count.
        self._denied_streak: dict[int, int] = {}
        self._dvfs_backoff: dict[int, int] = {}
        self._denied_since_boundary: set[int] = set()
        self._search_failures = 0

    # -- lifecycle ----------------------------------------------------------------

    def on_program_start(self) -> BatchAdjustment:
        ctx = self._require_ctx()
        scale = ctx.machine.scale
        self.profiler = OnlineProfiler(scale=scale, miss_threshold=self.config.miss_threshold)
        self.regression = RegressionProfiler(scale=scale)
        self.adjuster = WorkloadAwareFrequencyAdjuster(
            scale=scale,
            num_cores=ctx.machine.num_cores,
            search=self.config.search,
            cc_mode=self.config.cc_mode,
            headroom=self.config.headroom,
            leftover_policy=self.config.leftover_policy,
            capacities=ctx.machine.capacities(),
            overhead_model=self.config.overhead_model,
        )
        # Batch 0 runs all-fast in a single c-group (paper: "in the first
        # iteration, all the cores run at the highest frequency F_0").
        self._install_plan(uniform_plan(ctx.machine.num_cores, level=0))
        return BatchAdjustment(frequency_levels=[0] * ctx.machine.num_cores)

    def on_batch_start(self, batch: Batch, tasks: Sequence[Task]) -> None:
        self._batch_start_time = self._require_ctx().now()
        self._batch_class_counts = {}
        for task in tasks:
            name = task.function
            self._batch_class_counts[name] = self._batch_class_counts.get(name, 0) + 1
        super().on_batch_start(batch, tasks)

    def on_task_complete(self, core_id: int, task: Task) -> None:
        assert self.profiler is not None and self.regression is not None
        level = task.executed_level
        assert level is not None
        core_types = self._core_types
        core_type = None if core_types is None else core_types[core_id]
        elapsed = task.elapsed
        self.profiler.observe(
            task.function, elapsed, level, task.spec.counters, core_type
        )
        # Only the regression decision path reads these samples; in any
        # other mode they would pile up unread, one per task.
        if self.config.memory_bound_mode is MemoryBoundMode.REGRESSION:
            self.regression.observe(task.function, elapsed, level, core_type)

    def on_dvfs_denied(self, core_id: int, level: int) -> None:
        super().on_dvfs_denied(core_id, level)
        self._denied_since_boundary.add(core_id)

    def _update_denial_streaks(self) -> None:
        """Bounded retry with backoff for denied boundary DVFS requests.

        A core denied at ``max_dvfs_retries`` consecutive boundaries is
        backed off: its entry in the next ``dvfs_backoff_batches`` emitted
        plans is masked to ``None`` (no request), after which EEWA tries
        again. A granted (or absent) request resets the core's streak.
        """
        denied = self._denied_since_boundary
        self._denied_since_boundary = set()
        if not denied and not self._denied_streak:
            return
        streaks: dict[int, int] = {}
        for cid in denied:
            streak = self._denied_streak.get(cid, 0) + 1
            if streak >= self.config.max_dvfs_retries:
                self._dvfs_backoff[cid] = self.config.dvfs_backoff_batches
                self.stats.extra["dvfs_backoffs"] = (
                    self.stats.extra.get("dvfs_backoffs", 0.0) + 1.0
                )
            else:
                streaks[cid] = streak
        self._denied_streak = streaks

    def _mask_backoff(self, levels: list) -> list:
        """Suppress requests for backed-off cores, ticking their windows."""
        for cid in sorted(self._dvfs_backoff):
            levels[cid] = None
            remaining = self._dvfs_backoff[cid] - 1
            if remaining <= 0:
                del self._dvfs_backoff[cid]
            else:
                self._dvfs_backoff[cid] = remaining
        return levels

    def on_batch_end(self, batch_index: int) -> BatchAdjustment | None:
        ctx = self._require_ctx()
        profiler = self.profiler
        adjuster = self.adjuster
        assert profiler is not None and adjuster is not None

        self._update_denial_streaks()
        duration = ctx.now() - self._batch_start_time
        if batch_index == 0:
            profiler.set_ideal_time(duration)
            verdict = classify_application(profiler)
            self._memory_bound = verdict.kind.value == "memory"
            self.stats.extra["memory_bound_fraction"] = verdict.memory_bound_fraction
            if self._memory_bound and self.config.memory_bound_mode is MemoryBoundMode.FALLBACK:
                # Paper behaviour: traditional work-stealing at F_0 for the
                # rest of the run. The current uniform plan already encodes
                # exactly that; freeze it.
                self._frozen = True
                self.stats.extra["fallback_memory_bound"] = 1.0
                profiler.reset_batch()
                return None

        if self._frozen or (batch_index > 0 and not self.config.adapt_every_batch):
            profiler.reset_batch()
            return None

        decision = self._decide()
        self.decisions.append(decision)
        if decision.fallback_reason == "no feasible k-tuple":
            self._search_failures += 1
            if self._search_failures >= self.config.max_search_failures:
                # Graceful degradation: the search keeps coming up empty, so
                # stop paying for it — freeze into traditional all-``F_0``
                # work-stealing for the rest of the program.
                self._frozen = True
                self.stats.extra["fallback_search_failure"] = 1.0
                self._install_plan(uniform_plan(ctx.machine.num_cores, level=0))
                profiler.reset_batch()
                return BatchAdjustment(
                    frequency_levels=self._mask_backoff(
                        [0] * ctx.machine.num_cores
                    ),
                    overhead_seconds=decision.simulated_seconds,
                )
        elif decision.fallback_reason is None:
            self._search_failures = 0
        if decision.fallback_reason == "regression exploration batch":
            # The exploration batch *wants* slower cores to steal from the
            # fast group — the criticality guard must stay disarmed or no
            # off-frequency samples are ever collected.
            self._install_plan(decision.plan)
        else:
            class_workloads = {
                c.function: c.mean_workload for c in profiler.classes_by_workload()
            }
            self._install_plan(
                decision.plan,
                class_workloads=class_workloads,
                ideal_time=profiler.ideal_time,
            )
        profiler.reset_batch()
        return BatchAdjustment(
            frequency_levels=self._mask_backoff(list(decision.plan.core_levels)),
            overhead_seconds=decision.simulated_seconds,
        )

    def state_fingerprint(self) -> Optional[str]:
        """Grouped fingerprint plus adjuster-facing state.

        Returns ``None`` (disabling fast-forward) in
        :attr:`MemoryBoundMode.REGRESSION` mode: the
        :class:`RegressionProfiler` accumulates samples across *all*
        batches, so its decisions are never provably periodic. Excluded as
        boundary-irrelevant: ``_batch_start_time`` and
        ``_batch_class_counts`` (both overwritten in ``on_batch_start``
        before their next read) and the grow-only ``decisions`` log.
        """
        if self.config.memory_bound_mode is MemoryBoundMode.REGRESSION:
            return None
        base = super().state_fingerprint()
        if base is None or self.profiler is None:
            return None
        fp = (
            f"{base}:profiler={self.profiler.state_fingerprint()}"
            f":mb={self._memory_bound}:frozen={self._frozen}:explored={self._explored}"
        )
        # Degradation state influences the next boundary's plan, so it must
        # be covered — but it is only ever non-empty under fault injection
        # (which already disables fast-forward), so fault-free fingerprints
        # are untouched.
        if (
            self._denied_streak
            or self._dvfs_backoff
            or self._denied_since_boundary
            or self._search_failures
        ):
            fp += (
                f":deg={sorted(self._denied_streak.items())}"
                f"|{sorted(self._dvfs_backoff.items())}"
                f"|{sorted(self._denied_since_boundary)}"
                f"|{self._search_failures}"
            )
        return fp

    # -- decision paths -------------------------------------------------------------

    def _decide(self) -> AdjusterDecision:
        assert self.profiler is not None and self.adjuster is not None
        if (
            self._memory_bound
            and self.config.memory_bound_mode is MemoryBoundMode.REGRESSION
        ):
            return self._decide_by_regression()
        return self.adjuster.decide(self.profiler)

    def _decide_by_regression(self) -> AdjusterDecision:
        """Future-work path: CC table from fitted t(f) models.

        The model ``t(f) = a/f + b`` needs observations at two or more
        frequencies, but batch 0 runs entirely at ``F_0`` — so the first
        regression decision is an *exploration* batch: a third of the cores
        drop one level, and cross-group stealing (with the criticality
        guard disarmed) mixes every class onto both frequencies. One such
        batch identifies the model; all later batches use it.
        """
        import time as _time

        assert (
            self.profiler is not None
            and self.regression is not None
            and self.adjuster is not None
        )
        ctx = self._require_ctx()
        t0 = _time.perf_counter()

        majors = [fn for fn, n in self._batch_class_counts.items() if n > 0]
        needs_data = any(
            self.regression.sample_count(fn) == 0
            or self.regression.fit(fn).is_degenerate
            for fn in majors
        )
        if needs_data:
            if self._explored:
                # Exploration already happened and still no signal (e.g.
                # single-class odd cases): stay safe at F_0.
                return self.adjuster.decide(self.profiler)
            self._explored = True
            m = ctx.machine.num_cores
            slow = max(1, m // 3)
            from repro.runtime.wats import plan_from_levels

            base = plan_from_levels([0] * (m - slow) + [1] * slow, machine=ctx.machine)
            plan = CGroupPlan(
                core_levels=base.core_levels,
                groups=base.groups,
                class_to_group={fn: 0 for fn in majors},
                group_of_core=base.group_of_core,
            )
            wall = _time.perf_counter() - t0
            decision = AdjusterDecision(
                plan=plan,
                table=None,
                solution=None,
                wallclock_seconds=wall,
                simulated_seconds=self.adjuster.overhead_model.cost(
                    len(majors), ctx.machine.r
                ),
                fallback_reason="regression exploration batch",
            )
            self.adjuster.decisions.append(decision)
            return decision
        try:
            table: CCTable = build_regression_cc_table(
                self.regression,
                self._batch_class_counts,
                ctx.machine.scale,
                self.profiler.require_ideal_time(),
            )
        except Exception:
            return self.adjuster.decide(self.profiler)
        solution = search_ktuple(
            table, ctx.machine.num_cores, capacities=ctx.machine.capacities()
        )
        if solution is None:
            return self.adjuster.decide(self.profiler)
        plan = build_cgroup_plan(
            solution, table, ctx.machine.num_cores,
            leftover_policy=self.config.leftover_policy,
            capacities=ctx.machine.capacities(),
        )
        wall = _time.perf_counter() - t0
        decision = AdjusterDecision(
            plan=plan,
            table=table,
            solution=solution,
            wallclock_seconds=wall,
            simulated_seconds=self.adjuster.overhead_model.cost(table.k, table.r),
        )
        self.adjuster.decisions.append(decision)
        return decision

    # -- reporting --------------------------------------------------------------------

    def total_adjuster_wallclock(self) -> float:
        """Measured Python time spent in adjuster decisions (Table III)."""
        return sum(d.wallclock_seconds for d in self.decisions)

    def total_adjuster_simulated(self) -> float:
        return sum(d.simulated_seconds for d in self.decisions)
