"""Closed-form per-cell makespan/energy prediction.

One simulated cell is a pure function of *(program, policy config,
machine, seed)*; for the policies below its steady state is also
*analytically expressible*, so the same numbers fall out of a few
arithmetic passes over the task specs instead of O(events) of
discrete-event replay:

``cilk``
    Every core runs busy (spinning or executing) at its pinned level for
    the whole run, so energy is exact given the makespan, and the
    makespan of one batch is a heaviest-first list schedule: local pops
    are LIFO over an ascending-sorted batch, so each core attacks its
    heaviest work first and stealing keeps no core idle while work
    remains.

``cilk-d``
    Cilk plus tail-idle DVFS: a core that finishes at ``f`` spins at
    ``F_0`` for the idle-grace window, pays one transition latency at
    idle power, then spins at the slowest level until the barrier — and
    pays the latency again (at idle power) when the next batch wakes it.

``eewa``
    The decision loop is replicated *exactly* — the model feeds the real
    :class:`~repro.core.profiler.OnlineProfiler` and
    :class:`~repro.core.adjuster.WorkloadAwareFrequencyAdjuster` with the
    same per-task observations the simulator would deliver, so the CC
    table, the k-tuple search, and the resulting c-group plans are the
    genuine articles. Each batch then costs one per-group list schedule;
    boundary windows bill exactly like the engine (changed cores idle
    through the DVFS transition, unchanged cores spin busy; at the final
    boundary the transition never completes, so changed cores idle
    through the whole trailing overhead window).

``wats`` (no analytic steady state claimed), fault-injected cells,
nested-spawn programs, shared DVFS domains, and eewa's regression mode
all *decline* (:func:`decline_reason`) — the sweep engine falls back to
full simulation for them, bit-identically.

The prediction is deterministic and seed-independent *given the
program* (the program itself already carries the seed's jitter/drift);
residual error versus the simulator comes from event-level noise the
model deliberately ignores (steal-scan quanta, random victim order) and
is measured honestly by :mod:`repro.model.validate`.
"""

from __future__ import annotations

import functools
import heapq
from typing import Any, Optional, Sequence

from repro.machine.topology import MachineConfig
from repro.runtime.task import Batch, TaskSpec
from repro.sim.record import CellResult

#: Policies with an analytically expressible steady state.
MODEL_POLICIES = frozenset({"cilk", "cilk-d", "eewa"})


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------


def decline_reason(
    program: Sequence[Batch],
    policy: str,
    machine: MachineConfig,
    *,
    core_levels: Optional[Sequence[int]] = None,
    eewa_config: Any = None,
    policy_params: Optional[tuple[tuple[str, Any], ...]] = None,
    faults: Any = None,
) -> Optional[str]:
    """Why this cell has no analytic prediction (``None`` = supported).

    *Structural* eligibility only — whether the math exists at all, not
    whether it is calibrated to be trusted (that second question is
    :func:`repro.model.bounds.classify_cell`). A declined cell always
    falls back to full simulation.
    """
    from repro.errors import ScenarioError
    from repro.scenario.registry import POLICIES, resolve_eewa_config

    try:
        name = POLICIES.canonical(policy)
    except ScenarioError:
        return f"unknown policy {policy!r}"
    if name not in MODEL_POLICIES:
        return f"policy {name!r} has no analytic steady state"
    if faults is not None:
        return "fault injection perturbs the steady state"
    if machine.dvfs_domains is not None:
        return "shared DVFS domains arbitrate requests dynamically"
    for batch in program:
        for spec in batch.specs:
            if spec.children:
                return "nested spawns unfold dynamically"
    if name == "cilk":
        if policy_params:
            return f"cilk params {sorted(dict(policy_params))} not modelled"
        if core_levels is not None and len(core_levels) != machine.num_cores:
            return "core_levels length does not match the machine"
    if name == "cilk-d":
        if policy_params and set(dict(policy_params)) - {"idle_grace_s"}:
            return (
                f"cilk-d params {sorted(dict(policy_params))} not modelled"
            )
    if name == "eewa":
        from repro.core.membound import MemoryBoundMode

        try:
            config = resolve_eewa_config(
                params=dict(policy_params or ()), config=eewa_config
            )
        except ScenarioError as exc:
            return f"eewa params rejected: {exc}"
        if config.memory_bound_mode is MemoryBoundMode.REGRESSION:
            return "regression mode accumulates cross-batch state"
    return None


# ----------------------------------------------------------------------
# shared machinery
# ----------------------------------------------------------------------


class _PowerTables:
    """Per-core busy/idle watts, identical to the energy meter's tables."""

    __slots__ = ("busy", "idle", "base_power")

    def __init__(self, machine: MachineConfig) -> None:
        self.busy: list[tuple[float, ...]] = []
        self.idle: list[float] = []
        for c in range(machine.num_cores):
            power = machine.power_of(machine.core_type_of(c))
            ladder = machine.ladder_of(c)
            self.busy.append(tuple(power.busy_power(f) for f in ladder.levels))
            self.idle.append(power.idle_power())
        self.base_power = machine.power.machine_base_power


@functools.lru_cache(maxsize=64)
def _power_tables(machine: MachineConfig) -> _PowerTables:
    """Per-machine table cache: machines are shared across a sweep's cells."""
    return _PowerTables(machine)


def _speeds(machine: MachineConfig, levels: Sequence[int]) -> list[float]:
    return [
        machine.ladder_of(c).levels[levels[c]] * machine.ipc_of(c)
        for c in range(machine.num_cores)
    ]


def _pool_schedule(
    specs: Sequence[TaskSpec],
    core_ids: Sequence[int],
    speeds: Sequence[float],
    pop_cycles: float,
    steal_cycles: float,
    ready: Optional[dict[int, float]] = None,
    offset: int = 0,
) -> tuple[list[float], dict[int, float], dict[int, float], list[int]]:
    """Mean-field emulation of one batch's work-stealing pool dynamics.

    Tasks land round-robin across the cores in ``specs`` order (each
    core's deque a LIFO stack, exactly the engine's placement); a free
    core pops its own newest task, and an empty core steals the *oldest*
    queued task anywhere — the deterministic mean-field limit of the
    engine's random-victim FIFO steal. ``offset`` rotates the placement
    start the way the engine's seed-dependent rotation does: predictions
    use offset 0, and :func:`_rotation_invariant` sweeps the others to
    confirm the seed cannot move the makespan (on cores of equal speed
    it never can, which is why homogeneous-speed schedules need no
    sweep).

    ``ready`` gives per-core start offsets (cores still raising out of a
    low P-state); all other cores start at 0. Returns per-spec execution
    seconds (``specs`` order), per-core finish times and busy (running)
    seconds, and per-spec assigned core ids.
    """
    cores = sorted(core_ids)
    n = len(cores)
    nspecs = len(specs)
    stacks: list[list[int]] = [[] for _ in range(n)]
    for i in range(nspecs):
        stacks[(i + offset) % n].append(i)
    ready_of = ready or {}
    heap = [(ready_of.get(c, 0.0), slot) for slot, c in enumerate(cores)]
    heapq.heapify(heap)
    exec_seconds = [0.0] * nspecs
    assigned = [0] * nspecs
    finish: dict[int, float] = {c: ready_of.get(c, 0.0) for c in cores}
    busy: dict[int, float] = {c: 0.0 for c in cores}
    taken = [False] * nspecs
    steal_ptr = 0  # oldest possibly-queued task, in placement order
    remaining = nspecs
    while remaining:
        t, slot = heapq.heappop(heap)
        own = stacks[slot]
        i = -1
        while own:  # LIFO: newest local task not already stolen
            j = own.pop()
            if not taken[j]:
                i = j
                acquire = pop_cycles
                break
        if i < 0:
            while steal_ptr < nspecs and taken[steal_ptr]:
                steal_ptr += 1
            if steal_ptr == nspecs:
                continue  # nothing queued; this core spins to the barrier
            i = steal_ptr  # FIFO: oldest queued task anywhere
            steal_ptr += 1
            acquire = steal_cycles
        taken[i] = True
        core = cores[slot]
        spec = specs[i]
        speed = speeds[core]
        exec_s = spec.cpu_cycles / speed + spec.mem_stall_seconds
        dur = acquire / speed + exec_s
        done = t + dur
        heapq.heappush(heap, (done, slot))
        exec_seconds[i] = exec_s
        assigned[i] = core
        finish[core] = done
        busy[core] += dur
        remaining -= 1
    return exec_seconds, finish, busy, assigned


#: Largest relative makespan spread across placement rotations before a
#: mixed-speed schedule is declared seed-dependent and declined (half of
#: :data:`repro.model.bounds.MAX_RELATIVE_ERROR`, leaving the other half
#: for the mean-field emulation error itself).
_ROTATION_TOLERANCE = 0.01


def _rotation_invariant(
    specs: "tuple[TaskSpec, ...]",
    core_ids: Sequence[int],
    speeds: Sequence[float],
    machine: MachineConfig,
    makespan0: float,
) -> bool:
    """Whether the batch makespan survives every placement rotation.

    The engine places tasks round-robin from a seed-dependent start
    core. On mixed per-core speeds that rotation decides which tasks
    land on slow cores, and when work cannot rebalance through steals
    the makespan genuinely depends on the seed — something a
    seed-independent prediction must refuse to guess at.
    """
    for off in range(1, len(core_ids)):
        _, finish, _, _ = _pool_schedule(
            specs,
            core_ids,
            speeds,
            machine.pop_cycles,
            machine.steal_cycles,
            offset=off,
        )
        if abs(max(finish.values()) - makespan0) > _ROTATION_TOLERANCE * makespan0:
            return False
    return True


# ----------------------------------------------------------------------
# cilk
# ----------------------------------------------------------------------


def _predict_cilk(
    program: Sequence[Batch],
    machine: MachineConfig,
    core_levels: Optional[Sequence[int]],
) -> Optional[CellResult]:
    m = machine.num_cores
    levels = list(core_levels) if core_levels is not None else [0] * m
    speeds = _speeds(machine, levels)
    power = _power_tables(machine)
    core_ids = list(range(m))
    mixed_speeds = len(set(speeds)) > 1

    total_time = 0.0
    running_by_core = [0.0] * m
    tasks = 0
    prev_specs: Optional[tuple[TaskSpec, ...]] = None
    cached: Optional[tuple[float, dict[int, float]]] = None
    for batch in program:
        tasks += len(batch.specs)
        if prev_specs is not None and batch.specs == prev_specs:
            assert cached is not None
            makespan, busy = cached
        else:
            _, finish, busy, _ = _pool_schedule(
                batch.specs,
                core_ids,
                speeds,
                machine.pop_cycles,
                machine.steal_cycles,
            )
            makespan = max(finish.values())
            if mixed_speeds and not _rotation_invariant(
                batch.specs, core_ids, speeds, machine, makespan
            ):
                return None
            prev_specs, cached = batch.specs, (makespan, busy)
        total_time += makespan
        for c, b in busy.items():
            running_by_core[c] += b

    core_joules = sum(power.busy[c][levels[c]] * total_time for c in core_ids)
    running_joules = sum(
        power.busy[c][levels[c]] * running_by_core[c] for c in core_ids
    )
    baseline = power.base_power * total_time
    return CellResult(
        policy_name="cilk",
        machine=machine,
        total_time=total_time,
        total_joules=core_joules + baseline,
        core_joules=core_joules,
        baseline_joules=baseline,
        spin_joules=core_joules - running_joules,
        running_joules=running_joules,
        tasks_executed=tasks,
        batches_executed=len(program),
    )


# ----------------------------------------------------------------------
# cilk-d
# ----------------------------------------------------------------------


def _predict_cilk_d(
    program: Sequence[Batch],
    machine: MachineConfig,
    idle_grace_s: float,
) -> CellResult:
    m = machine.num_cores
    levels = [0] * m
    speeds = _speeds(machine, levels)
    power = _power_tables(machine)
    core_ids = list(range(m))
    latency = machine.dvfs_latency_s
    slowest = [machine.ladder_of(c).slowest_index for c in range(m)]

    total_time = 0.0
    core_joules = 0.0
    running_joules = 0.0
    idle_joules = 0.0  # transition windows, billed at idle power
    tasks = 0
    dropped: frozenset[int] = frozenset()  # cores sitting at the slowest level
    # Steady-state memo: once the batch contents and the dropped set both
    # repeat, the whole batch repeats — the model's analog of fast-forward.
    memo_key: Optional[tuple[tuple[TaskSpec, ...], frozenset[int]]] = None
    memo_out: Optional[tuple[float, float, float, float, frozenset[int]]] = None
    for batch in program:
        tasks += len(batch.specs)
        if memo_key is not None and memo_key == (batch.specs, dropped):
            assert memo_out is not None
            makespan, d_core, d_run, d_idle, dropped = memo_out
            core_joules += d_core
            running_joules += d_run
            idle_joules += d_idle
            total_time += makespan
            continue
        d_core = d_run = d_idle = 0.0
        # A dropped core must raise back to F_0 before touching work: one
        # transition latency at idle power, then it pops at full speed.
        ready = {c: latency for c in dropped}
        _, finish, busy, _ = _pool_schedule(
            batch.specs,
            core_ids,
            speeds,
            machine.pop_cycles,
            machine.steal_cycles,
            ready=ready,
        )
        makespan = max(finish.values())
        dropped_next = set()
        for c in core_ids:
            start = ready.get(c, 0.0)
            if start:
                d_idle += power.idle[c] * start
            f = finish[c]
            busy_f0 = f - start  # back-to-back pops: no intra-schedule slack
            tail = makespan - f
            if tail > idle_grace_s:
                # Spin at F_0 through the grace window, transition at idle
                # power, spin at the slowest level until the barrier.
                trans = min(latency, tail - idle_grace_s)
                slow_spin = max(0.0, tail - idle_grace_s - trans)
                d_core += power.busy[c][0] * (busy_f0 + idle_grace_s)
                d_core += power.busy[c][slowest[c]] * slow_spin
                d_idle += power.idle[c] * trans
                dropped_next.add(c)
            else:
                d_core += power.busy[c][0] * (busy_f0 + tail)
            d_run += power.busy[c][0] * busy[c]
        memo_key = (batch.specs, dropped)
        dropped = frozenset(dropped_next)
        memo_out = (makespan, d_core, d_run, d_idle, dropped)
        core_joules += d_core
        running_joules += d_run
        idle_joules += d_idle
        total_time += makespan

    baseline = power.base_power * total_time
    core_total = core_joules + idle_joules
    return CellResult(
        policy_name="cilk-d",
        machine=machine,
        total_time=total_time,
        total_joules=core_total + baseline,
        core_joules=core_total,
        baseline_joules=baseline,
        spin_joules=core_joules - running_joules,
        running_joules=running_joules,
        tasks_executed=tasks,
        batches_executed=len(program),
    )


# ----------------------------------------------------------------------
# eewa
# ----------------------------------------------------------------------


def _predict_eewa(
    program: Sequence[Batch],
    machine: MachineConfig,
    config,
) -> CellResult:
    from repro.core.adjuster import WorkloadAwareFrequencyAdjuster
    from repro.core.cgroups import uniform_plan
    from repro.core.membound import MemoryBoundMode, classify_application
    from repro.core.profiler import OnlineProfiler

    m = machine.num_cores
    scale = machine.scale
    hetero = machine.is_heterogeneous
    power = _power_tables(machine)
    latency = machine.dvfs_latency_s
    profiler = OnlineProfiler(scale=scale, miss_threshold=config.miss_threshold)
    adjuster = WorkloadAwareFrequencyAdjuster(
        scale=scale,
        num_cores=m,
        search=config.search,
        cc_mode=config.cc_mode,
        headroom=config.headroom,
        leftover_policy=config.leftover_policy,
        capacities=machine.capacities(),
        overhead_model=config.overhead_model,
    )
    plan = uniform_plan(m, level=0)
    levels = [0] * m
    frozen = False
    search_failures = 0
    adjust_overhead = 0.0
    total_time = 0.0
    core_joules = 0.0
    running_joules = 0.0
    spin_joules = 0.0
    tasks = 0
    stats: dict[str, float] = {}
    #: (class-stats signature, ideal_time) -> decision; exact because the
    #: adjuster is a pure function of the profiled batch + ideal time.
    decision_memo: dict[Any, Any] = {}
    carry_ready: dict[int, float] = {}  # transition spilling into a batch

    # Whole-batch steady-state memo (the model's analog of fast-forward):
    # once the batch contents and the entire policy state entering a batch
    # repeat, the batch's contribution and exit state repeat exactly.
    # Valid for 0 < b < last: batch 0 pins the ideal time and the final
    # boundary bills its trailing window differently.
    prev_entry: Optional[tuple] = None
    prev_delta: Optional[tuple] = None

    last = len(program) - 1
    for b, batch in enumerate(program):
        tasks += len(batch.specs)
        entry = (
            batch.specs,
            tuple(levels),
            id(plan),
            frozen,
            search_failures,
            tuple(sorted(carry_ready.items())),
        )
        if 0 < b < last and prev_entry == entry:
            assert prev_delta is not None
            dt, d_core, d_run, d_spin, d_oh, nxt = prev_delta
            total_time += dt
            core_joules += d_core
            running_joules += d_run
            spin_joules += d_spin
            adjust_overhead += d_oh
            levels, plan, frozen, search_failures, carry_ready = nxt
            continue
        snap = (
            total_time,
            core_joules,
            running_joules,
            spin_joules,
            adjust_overhead,
        )
        # -- run the batch: one list schedule per c-group ----------------
        speeds = _speeds(machine, levels)
        fastest_group = plan.fastest_group_index()
        by_group: dict[int, list[int]] = {}
        for i, spec in enumerate(batch.specs):
            g = plan.class_to_group.get(spec.function, fastest_group)
            by_group.setdefault(g, []).append(i)
        exec_seconds = [0.0] * len(batch.specs)
        assigned_core = [0] * len(batch.specs)
        makespan = 0.0
        running_by_core = {c: 0.0 for c in range(m)}
        for g, indices in sorted(by_group.items()):
            core_ids = list(plan.groups[g].core_ids)
            specs = [batch.specs[i] for i in indices]
            ready = {c: carry_ready[c] for c in core_ids if c in carry_ready}
            ex, finish, busy, assigned = _pool_schedule(
                specs,
                core_ids,
                speeds,
                machine.pop_cycles,
                machine.steal_cycles,
                ready=ready,
            )
            makespan = max(makespan, max(finish.values()))
            for j, i in enumerate(indices):
                exec_seconds[i] = ex[j]
                assigned_core[i] = assigned[j]
            for c, s in busy.items():
                running_by_core[c] += s
        # Every core is busy (running or spinning) at its level from its
        # ready offset to the barrier; a core still mid-transition at
        # launch idles through its carried offset first.
        for c in range(m):
            off = carry_ready.get(c, 0.0)
            if off:
                core_joules += power.idle[c] * off
            watts = power.busy[c][levels[c]]
            window = max(0.0, makespan - off)
            core_joules += watts * window
            running_joules += watts * running_by_core[c]
            spin_joules += watts * (window - running_by_core[c])
        carry_ready = {}
        total_time += makespan

        # -- profile: identical observations to the simulator ------------
        for i, spec in enumerate(batch.specs):
            c = assigned_core[i]
            profiler.observe(
                spec.function,
                exec_seconds[i],
                levels[c],
                spec.counters,
                machine.core_type_of(c) if hetero else None,
            )

        # -- boundary: mirror EEWAScheduler.on_batch_end exactly ----------
        if b == 0:
            profiler.set_ideal_time(makespan)
            verdict = classify_application(profiler)
            stats["memory_bound_fraction"] = verdict.memory_bound_fraction
            if (
                verdict.kind.value == "memory"
                and config.memory_bound_mode is MemoryBoundMode.FALLBACK
            ):
                frozen = True
                stats["fallback_memory_bound"] = 1.0
        if frozen or (b > 0 and not config.adapt_every_batch):
            profiler.reset_batch()
        else:
            classes = profiler.classes_by_workload()
            decision_key = (
                tuple((c.function, c.count, c.mean_workload) for c in classes),
                profiler.ideal_time,
            )
            decision = decision_memo.get(decision_key)
            if decision is None:
                decision = adjuster.decide(profiler)
                decision_memo[decision_key] = decision
            new_levels = list(decision.plan.core_levels)
            new_plan = decision.plan
            if decision.fallback_reason == "no feasible k-tuple":
                search_failures += 1
                if search_failures >= config.max_search_failures:
                    frozen = True
                    stats["fallback_search_failure"] = 1.0
                    new_plan = uniform_plan(m, level=0)
                    new_levels = [0] * m
            elif decision.fallback_reason is None:
                search_failures = 0
            profiler.reset_batch()

            overhead = decision.simulated_seconds
            adjust_overhead += overhead
            changed = {c for c in range(m) if new_levels[c] != levels[c]}
            if b == last:
                # Trailing window: the program ends before any transition
                # completes, so changed cores idle through the whole window
                # while unchanged cores spin busy (then everything parks).
                for c in range(m):
                    if c in changed:
                        core_joules += power.idle[c] * overhead
                    else:
                        watts = power.busy[c][levels[c]]
                        core_joules += watts * overhead
                        spin_joules += watts * overhead
            else:
                trans = min(latency, overhead)
                for c in range(m):
                    if c in changed:
                        core_joules += power.idle[c] * trans
                        watts = power.busy[c][new_levels[c]]
                        core_joules += watts * (overhead - trans)
                        spin_joules += watts * (overhead - trans)
                    else:
                        watts = power.busy[c][levels[c]]
                        core_joules += watts * overhead
                        spin_joules += watts * overhead
                if latency > overhead:
                    carry_ready = {c: latency - overhead for c in changed}
                levels = new_levels
                plan = new_plan
            total_time += overhead
        if 0 < b < last:
            prev_entry = entry
            prev_delta = (
                total_time - snap[0],
                core_joules - snap[1],
                running_joules - snap[2],
                spin_joules - snap[3],
                adjust_overhead - snap[4],
                (levels, plan, frozen, search_failures, carry_ready),
            )
        else:
            prev_entry = None

    baseline = power.base_power * total_time
    return CellResult(
        policy_name="eewa",
        machine=machine,
        total_time=total_time,
        total_joules=core_joules + baseline,
        core_joules=core_joules,
        baseline_joules=baseline,
        spin_joules=spin_joules,
        running_joules=running_joules,
        tasks_executed=tasks,
        batches_executed=len(program),
        adjust_overhead_seconds=adjust_overhead,
        policy_stats=stats,
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def predict_cell(
    program: Sequence[Batch],
    policy: str,
    machine: MachineConfig,
    seed: int = 0,
    *,
    core_levels: Optional[Sequence[int]] = None,
    eewa_config: Any = None,
    policy_params: Optional[tuple[tuple[str, Any], ...]] = None,
    faults: Any = None,
) -> Optional[CellResult]:
    """Predict one cell analytically; ``None`` when the cell declines.

    Mirrors the argument surface of the simulation path
    (:func:`repro.experiments.parallel._simulate_cell`) so the sweep
    engine can hand either one the same cell, and returns the same record
    type: a :class:`~repro.sim.record.CellResult` with the cell's machine,
    an empty trace and no task rows. ``seed`` is accepted for
    symmetry: the prediction depends on it only through ``program``
    (which already carries the seed's jitter and drift).
    """
    del seed  # the program embodies the seed; the math is deterministic
    reason = decline_reason(
        program,
        policy,
        machine,
        core_levels=core_levels,
        eewa_config=eewa_config,
        policy_params=policy_params,
        faults=faults,
    )
    if reason is not None:
        return None
    from repro.scenario.registry import POLICIES, resolve_eewa_config

    name = POLICIES.canonical(policy)
    if name == "cilk":
        return _predict_cilk(program, machine, core_levels)
    if name == "cilk-d":
        from repro.runtime.cilk_d import DEFAULT_IDLE_GRACE_S

        params = dict(policy_params or ())
        grace = float(params.get("idle_grace_s", DEFAULT_IDLE_GRACE_S))
        return _predict_cilk_d(program, machine, grace)
    config = resolve_eewa_config(
        params=dict(policy_params or ()), config=eewa_config
    )
    return _predict_eewa(program, machine, config)


__all__ = [
    "MODEL_POLICIES",
    "decline_reason",
    "predict_cell",
]
