"""Deterministic discrete-event engine.

The engine executes an iteration-based program (a sequence of
:class:`~repro.runtime.task.Batch` objects) on a simulated
:class:`~repro.machine.topology.MachineConfig` under a pluggable
:class:`~repro.runtime.policy.SchedulerPolicy`, producing a
:class:`SimResult` with exact timing, per-core energy, and traces.

Simulation loop
---------------
Each free core asks its policy for an :class:`~repro.runtime.policy.Action`:

* ``RunTask`` — the engine charges the acquire cost (pop or steal) and the
  task's execution time at the core's current frequency, then schedules a
  ``TASK_DONE`` event. Children of the task are spawned (pushed through the
  policy) the moment it starts, waking idle cores.
* ``SetFrequency`` — the core stalls for the DVFS latency, then asks again.
* ``Wait`` — nothing stealable: the core spins (billed at full busy power,
  like an MIT Cilk worker) until the engine wakes it on new work.

When a batch drains, the policy's ``on_batch_end`` hook may return a
:class:`~repro.runtime.policy.BatchAdjustment` — this is where EEWA's
frequency adjuster runs. Its DVFS requests are applied (with latency) and
its decision overhead delays the next batch launch, exactly the cost
Table III accounts for.

Wakeup strategy
---------------
The engine keeps an explicit *idle set*: the ids of cores that returned
``Wait`` and are spinning with no wake already in flight. A batch launch
wakes the whole set. A mid-run spawn of ``n`` children wakes only the
``min(n, len(idle))`` lowest-numbered idle cores — one candidate per new
task — instead of scheduling a ``CORE_READY`` thundering herd for every
spinning core. Because wakes are issued in ascending core-id order (the
same order the old wake-everyone scheme dispatched in) and a woken core
that finds nothing simply re-enters the idle set, observable results are
unchanged on flat programs; only redundant no-op dispatches are elided.
Cores never receive duplicate zero-delay wakes: a core leaves the idle set
the moment a wake is scheduled for it and rejoins only by waiting again.

Steady-state fast-forward
-------------------------
Iteration-based programs converge: once a policy's plan stops changing,
every remaining batch is dynamically identical and re-simulating its events
is pure waste. At each *clean* batch boundary (event heap empty, no
mid-batch DVFS request since the previous boundary) the engine digests the
boundary state — policy :meth:`~repro.runtime.policy.SchedulerPolicy.state_fingerprint`,
RNG stream positions, per-core frequency levels, pending adjuster overhead —
and snapshots every accumulator. Three consecutive boundaries with equal
fingerprints, equal upcoming batch specs, and two bitwise-equal per-batch
delta sets (Δtime, per-core Δenergy breakdowns, Δpolicy-counters, batch
trace shape, minted-task templates) prove a steady state; the engine then
*replays* the recorded delta arithmetically for every remaining identical
batch instead of simulating it. Replay adds one per-batch sum to each
accumulator where full simulation adds each interval separately. On
machines whose arithmetic is float-exact (see
:func:`repro.machine.topology.dyadic_test_machine`) the two agree and the
:class:`SimResult` is bit-identical; that is what the parity tests prove.
On other machines, the Opteron preset among them, the sums can round
differently and a replayed result can differ in the last ulp, which is
why ``fast_forward`` is part of every cell key. Any bail-out — a policy
returning ``None`` from ``state_fingerprint()``, deep tracing or power-series
recording, a mid-batch ``SetFrequency``, events pending at the boundary, a
boundary batch that repeats neither neighbour (no snapshot is taken: it
could join no chain), or any fingerprint/spec/delta mismatch — falls back
to full simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from heapq import heappush
from typing import Optional, Sequence

from repro.errors import SchedulingError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.machine.core import CoreState, SimCore
from repro.machine.energy import EnergyMeter
from repro.machine.topology import MachineConfig
from repro.runtime.barrier import BatchBarrier
from repro.runtime.policy import (
    Action,
    RunTask,
    SchedulerPolicy,
    SetFrequency,
    Wait,
)
from repro.runtime.pools import PoolObserver
from repro.runtime.task import Batch, Task, TaskFactory, iter_programs_batches
from repro.sim.events import EventKind, EventQueue
from repro.sim.rng import RngStreams
from repro.sim.trace import (
    LAUNCHER_ACTOR,
    BatchTrace,
    DvfsTransition,
    TaskEventKind,
    TraceRecorder,
)

#: Hard cap on processed events — a runaway-policy backstop, far above any
#: legitimate run (each task costs a handful of events).
DEFAULT_MAX_EVENTS = 50_000_000

#: Version tag of the engine's observable behaviour. Part of the parallel
#: runner's cache key: bump it whenever an engine change may alter any
#: simulated result, so stale cached results can never be served.
ENGINE_VERSION = "eewa-engine-4"

# Hoisted enum members: the run loop compares kinds millions of times and
# attribute loads on the Enum class are Python-level descriptor calls.
_TASK_DONE = EventKind.TASK_DONE
_DVFS_DONE = EventKind.DVFS_DONE
_CORE_READY = EventKind.CORE_READY
_BATCH_LAUNCH = EventKind.BATCH_LAUNCH

_SPINNING = CoreState.SPINNING
_RUNNING = CoreState.RUNNING
_TRANSITION = CoreState.TRANSITION
_PARKED = CoreState.PARKED


@dataclass
class SimResult:
    """Everything observable from one simulated run."""

    policy_name: str
    machine: MachineConfig
    total_time: float
    total_joules: float
    core_joules: float
    baseline_joules: float
    spin_joules: float
    running_joules: float
    tasks_executed: int
    batches_executed: int
    trace: TraceRecorder
    meter: EnergyMeter
    tasks: list[Task] = field(repr=False, default_factory=list)
    adjust_overhead_seconds: float = 0.0
    policy_stats: dict[str, float] = field(default_factory=dict)
    #: How the batches were executed: event-by-event simulation vs
    #: steady-state delta replay. Always sums to ``batches_executed``.
    #: Deliberately *not* part of the result fingerprint — a fast-forwarded
    #: run must compare bit-identical to a full one.
    batches_simulated: int = 0
    batches_fast_forwarded: int = 0

    @property
    def average_power(self) -> float:
        """Mean whole-machine power draw in watts."""
        if self.total_time <= 0:
            return 0.0
        return self.total_joules / self.total_time

    def energy_vs(self, other: "SimResult") -> float:
        """Energy of this run relative to ``other`` (1.0 = equal)."""
        return self.total_joules / other.total_joules

    def time_vs(self, other: "SimResult") -> float:
        """Time of this run relative to ``other`` (1.0 = equal)."""
        return self.total_time / other.total_time


@dataclass
class _BoundarySnapshot:
    """Everything the fast-forward detector compares between boundaries."""

    pos: int  # index of the batch about to launch
    time: float
    fingerprint: str
    #: per-core (joules, seconds, joules_by_state, seconds_by_state,
    #: seconds_by_level) copies
    accounts: list[tuple]
    #: (tasks_executed, tasks_stolen, local_pops, failed_scans,
    #: cross_group_steals, extra-dict copy)
    stats: tuple
    n_batches: int
    n_transitions: int
    n_finished: int
    factory_next: int
    tasks_executed: int


class Simulator:
    """Runs one program under one policy on one machine.

    Also implements the :class:`~repro.runtime.policy.RuntimeContext`
    protocol handed to policies.
    """

    def __init__(
        self,
        machine: MachineConfig,
        policy: SchedulerPolicy,
        *,
        seed: int = 0,
        keep_tasks: bool = True,
        max_events: int = DEFAULT_MAX_EVENTS,
        record_power_series: bool = False,
        record_task_events: bool = False,
        fast_forward: bool = True,
        faults: Optional[FaultSpec] = None,
    ) -> None:
        self._machine = machine
        self._policy = policy
        self._rng = RngStreams(seed)
        self._keep_tasks = keep_tasks
        self._max_events = max_events
        self._record_task_events = record_task_events
        # Deep traces and power series record *inside* batches, which delta
        # replay cannot reproduce — those modes force full simulation.
        self._fast_forward = (
            fast_forward and not record_task_events and not record_power_series
        )
        # Fault injection draws from its own RNG child, so a fault-free run
        # is bit-identical whether or not this feature exists. Fault draws
        # are per-event, which delta replay cannot reproduce — active
        # faults opt the run out of fast-forward entirely.
        self._injector: Optional[FaultInjector] = None
        #: core_id -> seq of the CORE_READY event that ends its stall.
        self._stalled: dict[int, int] = {}
        if faults is not None and faults.active:
            self._injector = FaultInjector(faults, self._rng.spawn_child("faults"))
            self._fast_forward = False
        self._ff_prev: Optional[_BoundarySnapshot] = None
        self._ff_delta: Optional[tuple] = None
        self._ff_saw_dvfs_request = False
        self._batches_simulated = 0
        self._batches_fast_forwarded = 0
        # Which core is currently driving policy code; the batch launcher
        # when root tasks are being placed. Only used for event attribution.
        self._trace_actor = LAUNCHER_ACTOR

        # Each core carries its own (one-type) ladder, type and IPC scale;
        # on homogeneous machines ladder_of returns machine.scale itself
        # and the op-index maps are identities, so this is the exact
        # pre-operating-point layout.
        self._cores = [
            SimCore(
                core_id=i,
                scale=machine.ladder_of(i),
                core_type=machine.core_type_of(i),
                ipc_scale=machine.ipc_of(i),
            )
            for i in range(machine.num_cores)
        ]
        self._ladders = [machine.ladder_of(i) for i in range(machine.num_cores)]
        #: Per core: reference cycles retired per second at each level of
        #: its ladder (``SimCore.effective_hz``, tabulated: same floats).
        self._hz_by_level = [
            tuple(f * core.ipc_scale for f in core.scale.levels)
            for core in self._cores
        ]
        self._op_maps = [
            machine.op_index_map_of(i) for i in range(machine.num_cores)
        ]
        self._meter = EnergyMeter(
            self._cores,
            machine.power,
            type_powers={t: machine.power_of(t) for t in machine.scale.types},
            record_series=record_power_series,
        )
        self._queue = EventQueue()
        self._barrier = BatchBarrier()
        self._trace = TraceRecorder()
        self._factory = TaskFactory()

        self._batches: list[Batch] = []
        self._next_batch_pos = 0
        self._pending_adjust_overhead = 0.0
        #: Spinning cores with no wake in flight — the targets of the next
        #: wakeup wave. See "Wakeup strategy" in the module docstring.
        self._idle: set[int] = set()
        self._finished_tasks: list[Task] = []
        self._tasks_executed = 0
        self._done = False
        # Per-core *requested* DVFS levels; with dvfs_domains the effective
        # level is the fastest request in the domain (voltage-plane rule).
        self._requested: list[int] = [0] * machine.num_cores
        # Per-core slots, indexed by core id: the task the core is running
        # (None when it runs none) and the seq of the TASK_DONE event that
        # ends it, so a superseded event is recognised as stale. The last
        # three hold the remaining-work bookkeeping for mid-run retunes
        # (domain coercion can change a RUNNING core's frequency): cycles
        # and memory stall left at the start of the running segment, and
        # the instant that segment started.
        n = machine.num_cores
        self._running: list[Optional[Task]] = [None] * n
        self._done_seq: list[int] = [-1] * n
        self._run_cycles: list[float] = [0.0] * n
        self._run_stall: list[float] = [0.0] * n
        self._run_seg_start: list[float] = [0.0] * n
        #: batch_index -> position in ``trace.batches`` (O(1) patching).
        self._batch_trace_pos: dict[int, int] = {}

    # ------------------------------------------------------------------
    # RuntimeContext protocol
    # ------------------------------------------------------------------

    @property
    def machine(self) -> MachineConfig:
        return self._machine

    @property
    def trace(self) -> TraceRecorder:
        """The run's trace so far — readable even after a failed run, which
        is how the race detector examines programs that deadlock."""
        return self._trace

    def now(self) -> float:
        return self._queue._now

    def core_level(self, core_id: int) -> int:
        return self._cores[core_id].level

    def requested_level(self, core_id: int) -> int:
        """The level this core has *asked* for (== effective level unless a
        shared DVFS domain is pinning it faster)."""
        return self._requested[core_id]

    def rng_choice(self, stream: str, options: Sequence[int]) -> int:
        return self._rng.choice(stream, options)

    def rng_shuffled(self, stream: str, options: Sequence[int]) -> list[int]:
        return self._rng.shuffled(stream, options)

    def pool_observer(self) -> Optional[PoolObserver]:
        """Pool-event sink for policies to hand their :class:`PoolGrid`.

        ``None`` (record nothing) unless the run was started with
        ``record_task_events=True`` — the deep-trace mode the race
        detector consumes.
        """
        if not self._record_task_events:
            return None

        kinds = {
            "push": TaskEventKind.PUSH,
            "pop": TaskEventKind.POP,
            "steal": TaskEventKind.STEAL,
        }

        def observe(op: str, pool_core: int, pool_index: int, task: Task) -> None:
            self._trace.record_task_event(
                self.now(),
                kinds[op],
                actor=self._trace_actor,
                task_id=task.task_id,
                pool_core=pool_core,
                pool_index=pool_index,
            )

        return observe

    def trace_plan(
        self, group_of_core: Sequence[int], group_levels: Sequence[int]
    ) -> None:
        """Record a c-group plan installation (no-op unless deep-tracing)."""
        if self._record_task_events:
            self._trace.record_plan(
                self.now(), tuple(group_of_core), tuple(group_levels)
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, program: Sequence[Batch]) -> SimResult:
        """Execute ``program`` to completion and return the result."""
        self._batches = list(iter_programs_batches(list(program)))
        if not self._batches:
            raise SimulationError("program has no batches")

        self._policy.bind(self)
        initial = self._policy.on_program_start()
        if initial is not None and initial.frequency_levels is not None:
            # Boot-time configuration: applied instantly, before the clock runs.
            self._apply_levels_instantly(initial.frequency_levels)
        for core in self._cores:
            core.spin()
            self._idle.add(core.core_id)

        self._launch_next_batch()

        # Hot loop: bound everything touched per event to locals.
        queue_pop = self._queue.pop
        handle_task_done = self._handle_task_done
        handle_dvfs_done = self._handle_dvfs_done
        handle_core_ready = self._handle_core_ready
        launch_next_batch = self._launch_next_batch
        heap = self._queue._heap
        max_events = self._max_events

        events = 0
        while heap and not self._done:
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events — livelocked policy?"
                )
            _time, seq, kind, core_id, task_id, _batch = queue_pop()
            if kind is _TASK_DONE:
                handle_task_done(core_id, task_id, seq)
            elif kind is _CORE_READY:
                handle_core_ready(core_id, seq)
            elif kind is _DVFS_DONE:
                handle_dvfs_done(core_id)
            elif kind is _BATCH_LAUNCH:
                launch_next_batch()
            else:  # pragma: no cover - enum is closed
                raise SimulationError(f"unknown event kind {kind}")

        if not self._done:
            inflight = sum(task is not None for task in self._running)
            raise SimulationError(
                f"event queue drained with work outstanding "
                f"(batch={self._barrier.batch_index}, inflight={inflight})"
            )

        result = self._build_result()
        # The policy holds this simulator as its ``ctx``; dropping the
        # reverse reference leaves no reference cycle, so the run is freed
        # as soon as its caller lets go of it, not by the cycle collector.
        self._policy = None
        return result

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _launch_next_batch(self) -> None:
        if self._fast_forward and self._try_fast_forward():
            return
        self._batches_simulated += 1
        batch = self._batches[self._next_batch_pos]
        self._next_batch_pos += 1
        self._barrier.open(batch.index, self.now())

        tasks = self._factory.make_batch(batch.specs, batch.index)
        record_events = self._record_task_events
        for task in tasks:
            self._barrier.add_task()
            if record_events:
                self._record_lifecycle(
                    TaskEventKind.CREATE, LAUNCHER_ACTOR, task.task_id
                )
        self._trace_actor = LAUNCHER_ACTOR
        self._policy.on_batch_start(batch, tasks)

        hist = self._level_histogram()
        self._batch_trace_pos[batch.index] = len(self._trace.batches)
        self._trace.record_batch(
            BatchTrace(
                batch_index=batch.index,
                start_time=self.now(),
                duration=float("nan"),  # patched when the batch drains
                tasks_completed=0,
                level_histogram=hist,
                adjust_overhead_seconds=self._pending_adjust_overhead,
            )
        )
        self._pending_adjust_overhead = 0.0
        self._wake_idle()

    # ------------------------------------------------------------------
    # steady-state fast-forward
    # ------------------------------------------------------------------

    def _try_fast_forward(self) -> bool:
        """Detect a steady state at this batch boundary and replay it.

        Returns True when the boundary's batch (and possibly the rest of
        the program) was handled by delta replay; the caller must then not
        launch anything. Any unclean condition resets the detection chain.
        """
        if self._queue._heap or self._ff_saw_dvfs_request:
            # Pending events (DVFS transitions in flight, timed Wait
            # retries crossing the boundary) or a mid-batch SetFrequency:
            # this boundary proves nothing.
            self._ff_saw_dvfs_request = False
            self._ff_prev = None
            self._ff_delta = None
            return False
        # Bill the adjuster-overhead gap now. This is the exact addition
        # the first post-launch observe would perform for the same
        # interval at the same (still spinning) power draw — it makes the
        # account snapshot align on the boundary time and changes nothing
        # when the chain never engages (the later observe becomes a no-op).
        self._meter.observe(self._queue._now)
        pos = self._next_batch_pos
        batches = self._batches
        specs = batches[pos].specs
        repeats_prev = pos > 0 and batches[pos - 1].specs == specs
        if not (
            repeats_prev
            or (pos + 1 < len(batches) and batches[pos + 1].specs == specs)
        ):
            # Replay needs three consecutive boundaries launching equal
            # batches, and this snapshot would be compared only with its
            # neighbours': a batch that repeats neither can join no chain,
            # so skip the fingerprints and account copies.
            self._ff_prev = None
            self._ff_delta = None
            return False
        snap = self._ff_snapshot()
        if snap is None:
            self._ff_prev = None
            self._ff_delta = None
            return False
        prev = self._ff_prev
        self._ff_prev = snap
        if (
            prev is None
            or snap.pos != prev.pos + 1
            or snap.fingerprint != prev.fingerprint
            or not repeats_prev
        ):
            self._ff_delta = None
            return False
        delta = self._ff_delta_between(prev, snap)
        if delta is None or self._ff_delta != delta:
            self._ff_delta = delta
            return False
        return self._ff_replay(delta)

    def _ff_snapshot(self) -> Optional[_BoundarySnapshot]:
        """Boundary state capture; ``None`` when the state is opaque."""
        policy_fp = self._policy.state_fingerprint()
        if policy_fp is None:
            return None
        cores = self._cores
        for core in cores:
            if core.state is not _SPINNING or core.pending_level is not None:
                return None
        fingerprint = "\x1f".join(
            (
                policy_fp,
                self._rng.state_fingerprint(),
                ",".join(str(core.level) for core in cores),
                ",".join(str(level) for level in self._requested),
                repr(self._pending_adjust_overhead),
            )
        )
        stats = self._policy.stats
        return _BoundarySnapshot(
            pos=self._next_batch_pos,
            time=self._queue._now,
            fingerprint=fingerprint,
            accounts=[
                (
                    a.joules,
                    a.seconds,
                    dict(a.joules_by_state),
                    dict(a.seconds_by_state),
                    dict(a.seconds_by_level),
                )
                for a in self._meter.accounts
            ],
            stats=(
                stats.tasks_executed,
                stats.tasks_stolen,
                stats.local_pops,
                stats.failed_scans,
                stats.cross_group_steals,
                dict(stats.extra),
            ),
            n_batches=len(self._trace.batches),
            n_transitions=len(self._trace.transitions),
            n_finished=len(self._finished_tasks),
            factory_next=self._factory.next_id,
            tasks_executed=self._tasks_executed,
        )

    def _ff_delta_between(
        self, prev: _BoundarySnapshot, snap: _BoundarySnapshot
    ) -> Optional[tuple]:
        """Everything one steady batch added, relative to its boundary.

        The tuple is compared with ``==`` between consecutive boundary
        pairs; any float that wobbles (non-exact arithmetic) or any shape
        change (different trace/transition/task layout, different account
        dict keys) breaks equality and keeps the engine simulating.
        """
        new_batches = self._trace.batches[prev.n_batches : snap.n_batches]
        if len(new_batches) != 1:
            return None
        bt = new_batches[0]
        per_core = []
        for (pj, ps, pjs, pss, psl), (cj, cs, cjs, css, csl) in zip(
            prev.accounts, snap.accounts
        ):
            per_core.append(
                (
                    cj - pj,
                    cs - ps,
                    tuple(
                        sorted(
                            ((k, v - pjs.get(k, 0.0)) for k, v in cjs.items()),
                            key=lambda kv: kv[0].value,
                        )
                    ),
                    tuple(
                        sorted(
                            ((k, v - pss.get(k, 0.0)) for k, v in css.items()),
                            key=lambda kv: kv[0].value,
                        )
                    ),
                    tuple(sorted((k, v - psl.get(k, 0.0)) for k, v in csl.items())),
                )
            )
        prev_extra = prev.stats[5]
        stats_delta = (
            snap.stats[0] - prev.stats[0],
            snap.stats[1] - prev.stats[1],
            snap.stats[2] - prev.stats[2],
            snap.stats[3] - prev.stats[3],
            snap.stats[4] - prev.stats[4],
            tuple(
                sorted(
                    (k, v - prev_extra.get(k, 0.0)) for k, v in snap.stats[5].items()
                )
            ),
        )
        batch_template = (
            bt.start_time - prev.time,
            bt.duration,
            bt.tasks_completed,
            bt.level_histogram,
            bt.adjust_overhead_seconds,
        )
        transitions = tuple(
            (tr.time - prev.time, tr.core_id, tr.from_level, tr.to_level)
            for tr in self._trace.transitions[prev.n_transitions : snap.n_transitions]
        )
        task_templates = tuple(
            (
                task.task_id - prev.factory_next,
                task.spec,
                task.stolen,
                task.start_time - prev.time,
                task.finish_time - prev.time,
                task.executed_on,
                task.executed_level,
            )
            for task in self._finished_tasks[prev.n_finished : snap.n_finished]
        )
        return (
            snap.time - prev.time,
            tuple(per_core),
            stats_delta,
            batch_template,
            transitions,
            task_templates,
            snap.factory_next - prev.factory_next,
            snap.tasks_executed - prev.tasks_executed,
        )

    def _ff_replay(self, delta: tuple) -> bool:
        """Apply the steady-state delta for every remaining identical batch.

        Accumulators grow by one per-batch delta at a time (never a
        multiplication), traces and tasks are minted at shifted times, and
        the barrier history gains one entry per batch. Full simulation adds
        each interval of a batch separately instead, so the two round
        alike only on float-exact machines (the dyadic test machine); on
        others a replayed result can differ in the last ulp.
        Returns True when the program was completed by replay; False when a
        differing batch interrupted it, in which case the caller resumes
        normal simulation at the updated ``_next_batch_pos``.
        """
        (
            dt,
            core_deltas,
            stats_delta,
            batch_template,
            transitions,
            task_templates,
            d_created,
            d_executed,
        ) = delta
        rel_start, duration, tasks_completed, level_hist, adjust_overhead = (
            batch_template
        )
        batches = self._batches
        pos = self._next_batch_pos
        template_specs = batches[pos - 1].specs
        t = self._queue._now
        trace = self._trace
        keep = self._keep_tasks
        accounts = self._meter.accounts
        stats = self._policy.stats
        history = self._barrier._history
        while pos < len(batches) and batches[pos].specs == template_specs:
            batch = batches[pos]
            t_launch = t + rel_start
            self._batch_trace_pos[batch.index] = len(trace.batches)
            trace.batches.append(
                BatchTrace(
                    batch_index=batch.index,
                    start_time=t_launch,
                    duration=duration,
                    tasks_completed=tasks_completed,
                    level_histogram=level_hist,
                    adjust_overhead_seconds=adjust_overhead,
                )
            )
            for rel_time, core_id, from_level, to_level in transitions:
                trace.record_transition(
                    DvfsTransition(
                        time=t + rel_time,
                        core_id=core_id,
                        from_level=from_level,
                        to_level=to_level,
                    )
                )
            base = self._factory.next_id
            if keep:
                for rel_id, spec, stolen, rel_s, rel_f, on, level in task_templates:
                    self._finished_tasks.append(
                        Task(
                            task_id=base + rel_id,
                            spec=spec,
                            batch_index=batch.index,
                            stolen=stolen,
                            start_time=t + rel_s,
                            finish_time=t + rel_f,
                            executed_on=on,
                            executed_level=level,
                        )
                    )
            self._factory.advance_to(base + d_created)
            history.append((batch.index, tasks_completed, t_launch, duration))
            for account, (dj, ds, djs, dss, dsl) in zip(accounts, core_deltas):
                account.joules += dj
                account.seconds += ds
                jbs = account.joules_by_state
                for k, v in djs:
                    jbs[k] = jbs.get(k, 0.0) + v
                sbs = account.seconds_by_state
                for k, v in dss:
                    sbs[k] = sbs.get(k, 0.0) + v
                sbl = account.seconds_by_level
                for k, v in dsl:
                    sbl[k] = sbl.get(k, 0.0) + v
            stats.tasks_executed += stats_delta[0]
            stats.tasks_stolen += stats_delta[1]
            stats.local_pops += stats_delta[2]
            stats.failed_scans += stats_delta[3]
            stats.cross_group_steals += stats_delta[4]
            extra = stats.extra
            for k, v in stats_delta[5]:
                extra[k] = extra.get(k, 0.0) + v
            self._tasks_executed += d_executed
            self._batches_fast_forwarded += 1
            t += dt
            pos += 1
        self._next_batch_pos = pos
        self._queue._now = t
        self._ff_prev = None
        self._ff_delta = None
        done = pos >= len(batches)
        # Accounts are billed through ``t`` by the deltas; realign the
        # meter so later billing (or none, once the program is done)
        # starts from the right instant.
        self._meter.billed_through(t, final=done)
        if not done:
            # A differing batch interrupted the steady state: fall back to
            # normal simulation from this boundary.
            return False
        self._policy.on_program_end()
        for core in self._cores:
            if core.state is _SPINNING:
                core.park()
        self._idle.clear()
        self._done = True
        return True

    def _handle_core_ready(self, core_id: int, seq: int) -> None:
        core = self._cores[core_id]
        if self._stalled:
            expected = self._stalled.get(core_id)
            if expected is not None:
                if expected != seq:
                    return  # stale wake arriving during a stall window
                # End of the fault-injected offline window: the core comes
                # back up and asks for work like any other woken core.
                del self._stalled[core_id]
                self._meter.observe(self._queue._now, core_id)
                core.spin()
                self._dispatch(core, observed=True)
                return
        if core.state is not _SPINNING:
            return  # stale wake: core got work or is mid-transition already
        self._dispatch(core)

    def _handle_task_done(self, core_id: int, task_id: int, seq: int) -> None:
        if self._done_seq[core_id] != seq:
            return  # superseded by a mid-run retune reschedule
        running = self._running
        task = running[core_id]
        if task is None or task.task_id != task_id:
            raise SimulationError(
                f"core {core_id} finished task {task_id}, but runs "
                f"{'none' if task is None else task.task_id}"
            )
        running[core_id] = None
        now = self._queue._now
        self._meter.observe(now, core_id)
        core = self._cores[core_id]
        core.state = _SPINNING
        task.finish_time = now
        if self._record_task_events:
            self._record_lifecycle(TaskEventKind.DONE, core_id, task_id)
        self._tasks_executed += 1
        if self._keep_tasks:
            self._finished_tasks.append(task)
        if self._injector is not None:
            corrupted = self._injector.corrupt_counters(task.spec.counters)
            if corrupted is not None:
                # The corrupted reading is what this run observed: it goes
                # to the policy and stays on the finished-task record.
                task.spec = replace(task.spec, counters=corrupted)
        self._policy.on_task_complete(core_id, task)

        if self._barrier.task_done():
            self._idle.add(core_id)
            self._end_batch()
        else:
            self._dispatch(core, observed=True)

    def _handle_dvfs_done(self, core_id: int) -> None:
        core = self._cores[core_id]
        self._meter.observe(self._queue._now, core_id)
        core.complete_transition()
        self._dispatch(core, observed=True)

    def _end_batch(self) -> None:
        batch_index = self._barrier.batch_index
        assert batch_index is not None
        completed = self._barrier.completed
        duration = self._barrier.close(self.now())
        self._patch_batch_trace(batch_index, duration, completed)

        adjustment = self._policy.on_batch_end(batch_index)
        overhead = 0.0
        if adjustment is not None:
            overhead = max(0.0, adjustment.overhead_seconds)
            if adjustment.frequency_levels is not None:
                self._apply_levels_with_latency(adjustment.frequency_levels)
        self._pending_adjust_overhead = overhead

        if self._next_batch_pos >= len(self._batches):
            self._finish_program(overhead)
        else:
            self._queue.schedule(overhead, _BATCH_LAUNCH)

    def _finish_program(self, trailing_overhead: float) -> None:
        self._policy.on_program_end()
        end_time = self.now() + trailing_overhead
        self._meter.finalize(end_time)
        for core in self._cores:
            if core.state is _SPINNING:
                core.park()
        self._idle.clear()
        self._done = True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, core: SimCore, observed: bool = False) -> None:
        """Ask the policy what ``core`` does next and enact it.

        ``observed`` says the meter has observed ``core`` at this instant,
        as the completion, DVFS and stall-end handlers do just before they
        dispatch it. Nothing reads the meter or moves the clock in between,
        so a task started now would only repeat that observation, and
        ``_start_task`` makes none. Two rarer repeats are left to the
        meter, which records nothing for them: a zero-delay ``CORE_READY``
        for a core that finished a task at that instant, and a
        ``SetFrequency`` answered right after a DVFS completion
        (``_request_levels`` observes).
        """
        if core.state is not _SPINNING:
            raise SimulationError(
                f"dispatch of core {core.core_id} in state {core.state}"
            )
        core_id = core.core_id
        self._idle.discard(core_id)
        if self._injector is not None:
            stall = self._injector.stall_seconds(core_id)
            if stall > 0.0:
                # Transient offline window: the core parks (baseline power
                # only) and a seq-guarded wake brings it back. It is not in
                # the idle set, so batch launches and spawn wakes skip it;
                # work stealing routes around it meanwhile.
                self._meter.observe(self._queue._now, core_id)
                core.park()
                event = self._queue.schedule(stall, _CORE_READY, core_id=core_id)
                self._stalled[core_id] = event.seq
                return
        self._trace_actor = core_id
        action: Action = self._policy.next_action(core_id)

        if type(action) is RunTask:
            self._start_task(core, action, observed)
        elif type(action) is Wait:
            # The core spins at full power; the failed scan itself takes
            # no simulated time.
            self._idle.add(core_id)
            retry = action.retry_after
            if retry is not None:
                if retry < 0:
                    raise SchedulingError("retry_after must be non-negative")
                self._queue.schedule(retry, _CORE_READY, core_id=core_id)
        elif type(action) is SetFrequency:
            if action.level == self._requested[core_id]:
                raise SchedulingError(
                    f"policy requested a no-op frequency change on core {core_id}"
                )
            self._ff_saw_dvfs_request = True
            if self._injector is not None and self._injector.deny_dvfs(core_id):
                # Denied: the core keeps spinning at its old level and asks
                # again after the platform's penalty. It is deliberately not
                # returned to the idle set — the timed retry is its wake.
                self._policy.on_dvfs_denied(core_id, action.level)
                self._queue.schedule(
                    self._injector.spec.dvfs_deny_penalty_s,
                    _CORE_READY,
                    core_id=core_id,
                )
                return
            began = self._request_levels({core_id: action.level})
            if core_id not in began:
                # The request was absorbed by the DVFS domain (a faster
                # sibling pins the plane): ask the policy again now — its
                # view (requested_level) has changed, so it will not loop.
                self._queue.schedule(0.0, _CORE_READY, core_id=core_id)
        else:
            raise SchedulingError(f"unknown action {action!r}")

    def _record_lifecycle(self, kind: TaskEventKind, actor: int, task_id: int) -> None:
        if self._record_task_events:
            self._trace.record_task_event(
                self.now(), kind, actor=actor, task_id=task_id,
                pool_core=actor if kind is not TaskEventKind.CREATE else -1,
            )

    def _start_task(self, core: SimCore, action: RunTask, observed: bool) -> None:
        task, acquire_cycles = action
        task_id = task.task_id
        core_id = core.core_id
        queue = self._queue
        now = queue._now
        if not observed:
            self._meter.observe(now, core_id)
        if self._record_task_events:
            self._record_lifecycle(TaskEventKind.EXEC, core_id, task_id)
        # The slot below is the one record of what the core runs; the
        # state is what the meter bills.
        core.state = _RUNNING
        spec = task.spec
        # Same arithmetic as SimCore.exec_seconds, with the effective speed
        # read from the per-core table; spec costs were validated
        # non-negative at construction. Cycle-denominated costs (task work
        # and the acquire overhead) retire at the core's effective speed.
        level = core.level
        effective_hz = self._hz_by_level[core_id][level]
        stall = spec.mem_stall_seconds
        acquire_seconds = acquire_cycles / effective_hz
        exec_seconds = spec.cpu_cycles / effective_hz + stall
        task.start_time = now + acquire_seconds
        task.executed_on = core_id
        task.executed_level = level
        self._running[core_id] = task
        self._run_cycles[core_id] = acquire_cycles + spec.cpu_cycles
        self._run_stall[core_id] = stall
        self._run_seg_start[core_id] = now
        # EventQueue.schedule, inlined: the heap holds plain tuples in the
        # Event layout, ordered by (time, seq) exactly as Events are.
        delay = acquire_seconds + exec_seconds
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, (now + delay, seq, _TASK_DONE, core_id, task_id, None))
        self._done_seq[core_id] = seq
        # Cilk semantics: spawned children become stealable when the parent
        # starts running.
        children = spec.children
        if children:
            self._trace_actor = core_id
            record_events = self._record_task_events
            for child_spec in children:
                child = self._factory.make(child_spec, task.batch_index)
                self._barrier.add_task()
                if record_events:
                    self._record_lifecycle(
                        TaskEventKind.CREATE, core_id, child.task_id
                    )
                self._policy.on_spawn(core_id, child)
            self._wake_idle(len(children))

    def _wake_idle(self, new_tasks: Optional[int] = None) -> None:
        """Schedule wakes for idle cores, lowest core id first.

        ``new_tasks=None`` (batch launch) wakes every idle core. Otherwise
        at most ``min(new_tasks, len(idle))`` cores are woken — each new
        task can be absorbed by exactly one core, so waking more would only
        schedule stale ``CORE_READY`` events. Woken ids leave the idle set
        immediately, so a core can never accumulate duplicate wakes.
        """
        idle = self._idle
        if not idle:
            return
        targets = sorted(idle)
        if new_tasks is not None and new_tasks < len(targets):
            targets = targets[:new_tasks]
        queue = self._queue
        heap = queue._heap
        now = queue._now
        seq = queue._seq
        for core_id in targets:
            idle.discard(core_id)
            # A zero-delay wake, pushed as a plain Event-layout tuple.
            heappush(heap, (now, seq, _CORE_READY, core_id, None, None))
            seq += 1
        queue._seq = seq

    # ------------------------------------------------------------------
    # frequency application helpers
    # ------------------------------------------------------------------

    def _effective_levels(self) -> list[int]:
        """Requested levels coerced by shared DVFS domains.

        Within a domain the hardware honours the *fastest* request (the
        lowest level index) — a voltage plane cannot go slower than its
        most demanding core requires.
        """
        domains = self._machine.dvfs_domains
        if domains is None:
            return list(self._requested)
        effective = list(self._requested)
        for domain in domains:
            fastest = min(self._requested[c] for c in domain)
            for c in domain:
                effective[c] = fastest
        return effective

    def _apply_levels_instantly(self, levels: Sequence[Optional[int]]) -> None:
        """Boot-time configuration: no latency, no transitions."""
        self._check_levels(levels)
        for cid, level in enumerate(levels):
            if level is not None:
                self._ladders[cid].validate_index(level)
                self._requested[cid] = level
        for core, level in zip(self._cores, self._effective_levels()):
            core.level = level

    def _apply_levels_with_latency(self, levels: Sequence[Optional[int]]) -> None:
        self._check_levels(levels)
        targets = {
            cid: level for cid, level in enumerate(levels) if level is not None
        }
        if self._injector is not None and self._injector.spec.dvfs_deny_rate > 0.0:
            # Only *actual* change requests can be denied — re-asserting the
            # current level is not a platform request, and denying it would
            # falsely signal degradation to the policy in steady state.
            for cid in sorted(targets):
                if targets[cid] != self._requested[cid] and self._injector.deny_dvfs(
                    cid
                ):
                    self._policy.on_dvfs_denied(cid, targets.pop(cid))
        self._request_levels(targets)

    def _request_levels(self, targets: dict[int, int]) -> set[int]:
        """Record DVFS requests and enact the resulting effective changes.

        Idle (spinning) cores transition with the DVFS latency; cores
        already mid-transition are redirected; RUNNING cores are retuned
        in place (their remaining work is rescaled to the new frequency) —
        this only happens under shared DVFS domains, where a sibling's
        request drags a busy core along. Returns the ids of cores that
        entered a timed transition.

        Only cores whose effective level can actually change are visited:
        the targeted cores when DVFS is per-core, or every member of a
        domain containing a targeted core under shared planes — unrelated
        cores are provably no-ops and skipping them keeps a single-core
        ``SetFrequency`` O(1) instead of O(num_cores).
        """
        ladders = self._ladders
        requested = self._requested
        for cid, level in targets.items():
            ladders[cid].validate_index(level)
            requested[cid] = level

        domains = self._machine.dvfs_domains
        if domains is None:
            # Per-core DVFS: effective == requested; only targets change.
            affected = sorted(targets)
            effective = {cid: requested[cid] for cid in affected}
        else:
            affected_set: set[int] = set()
            effective = {}
            for domain in domains:
                if any(c in targets for c in domain):
                    fastest = min(requested[c] for c in domain)
                    for c in domain:
                        affected_set.add(c)
                        effective[c] = fastest
            affected = sorted(affected_set)

        # A single-core request names its core to the meter; several cores
        # change here at once otherwise, so none is named (full scan).
        self._meter.observe(
            self._queue._now, affected[0] if len(affected) == 1 else None
        )
        began: set[int] = set()
        for core_id in affected:
            core = self._cores[core_id]
            target = effective[core_id]
            if core.state is _TRANSITION:
                if core.pending_level != target:
                    core.pending_level = target
                continue
            if core.level == target:
                continue
            old = core.level
            self._trace.record_transition(
                DvfsTransition(
                    time=self.now(), core_id=core_id,
                    from_level=old, to_level=target,
                )
            )
            if core.state is _RUNNING:
                self._retune_running(core, target)
                continue
            if core.state is _PARKED:
                core.level = target
                continue
            self._idle.discard(core_id)
            core.begin_transition(target)
            began.add(core_id)
            latency = self._machine.dvfs_latency_s
            if self._injector is not None:
                latency += self._injector.dvfs_extra_latency(core_id)
            self._queue.schedule(latency, _DVFS_DONE, core_id=core_id)
        return began

    def _retune_running(self, core: SimCore, level: int) -> None:
        """Change a RUNNING core's frequency mid-task.

        The remaining CPU cycles and memory stall are scaled by the
        fraction of the in-flight segment still to run, the completion
        event is rescheduled, and the old one is invalidated. Applied
        instantly — the glitch of a plane transition is microseconds and
        the running core does not stall for it in hardware.
        """
        core_id = core.core_id
        task = self._running[core_id]
        if task is None:
            raise SimulationError(f"core {core_id} RUNNING without execution state")
        now = self.now()
        cycles = self._run_cycles[core_id]
        stall = self._run_stall[core_id]
        old_duration = cycles / core.effective_hz + stall
        elapsed = now - self._run_seg_start[core_id]
        fraction = 0.0 if old_duration <= 0 else min(1.0, elapsed / old_duration)
        cycles *= 1.0 - fraction
        stall *= 1.0 - fraction
        self._run_cycles[core_id] = cycles
        self._run_stall[core_id] = stall
        self._run_seg_start[core_id] = now

        core.level = level
        remaining = cycles / core.effective_hz + stall
        event = self._queue.schedule(
            remaining, _TASK_DONE, core_id=core_id, task_id=task.task_id
        )
        self._done_seq[core_id] = event.seq

    def _check_levels(self, levels: Sequence[Optional[int]]) -> None:
        if len(levels) != self._machine.num_cores:
            raise SchedulingError(
                f"frequency_levels has {len(levels)} entries for "
                f"{self._machine.num_cores} cores"
            )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _level_histogram(self) -> tuple[int, ...]:
        """Cores per *operating point*, machine-wide.

        Indexed by the machine's global operating-point order; on
        homogeneous machines the per-core maps are identities, so this is
        the flat per-frequency-level histogram it always was.
        """
        hist = [0] * self._machine.r
        op_maps = self._op_maps
        for core in self._cores:
            # A core mid-transition counts at its destination level.
            level = core.pending_level if core.pending_level is not None else core.level
            hist[op_maps[core.core_id][level]] += 1
        return tuple(hist)

    def _patch_batch_trace(
        self, batch_index: int, duration: float, tasks_completed: int
    ) -> None:
        pos = self._batch_trace_pos.get(batch_index)
        if pos is None:
            raise SimulationError(f"no trace entry for batch {batch_index}")
        bt = self._trace.batches[pos]
        self._trace.batches[pos] = BatchTrace(
            batch_index=bt.batch_index,
            start_time=bt.start_time,
            duration=duration,
            tasks_completed=tasks_completed,
            level_histogram=bt.level_histogram,
            adjust_overhead_seconds=bt.adjust_overhead_seconds,
        )

    def _build_result(self) -> SimResult:
        stats = self._policy.stats
        return SimResult(
            policy_name=self._policy.name,
            machine=self._machine,
            total_time=self._meter.elapsed,
            total_joules=self._meter.total_joules(),
            core_joules=self._meter.core_joules(),
            baseline_joules=self._meter.baseline_joules(),
            spin_joules=self._meter.spin_joules(),
            running_joules=self._meter.running_joules(),
            tasks_executed=self._tasks_executed,
            batches_executed=len(self._trace.batches),
            trace=self._trace,
            meter=self._meter,
            tasks=self._finished_tasks,
            adjust_overhead_seconds=self._trace.total_adjust_overhead(),
            policy_stats={
                "tasks_executed": stats.tasks_executed,
                "tasks_stolen": stats.tasks_stolen,
                "local_pops": stats.local_pops,
                "failed_scans": stats.failed_scans,
                "cross_group_steals": stats.cross_group_steals,
                **stats.extra,
            },
            batches_simulated=self._batches_simulated,
            batches_fast_forwarded=self._batches_fast_forwarded,
        )


def simulate(
    program: Sequence[Batch],
    policy: SchedulerPolicy,
    machine: MachineConfig,
    *,
    seed: int = 0,
    keep_tasks: bool = True,
    record_power_series: bool = False,
    record_task_events: bool = False,
    fast_forward: bool = True,
    faults: Optional[FaultSpec] = None,
) -> SimResult:
    """One-call convenience wrapper around :class:`Simulator`."""
    return Simulator(
        machine,
        policy,
        seed=seed,
        keep_tasks=keep_tasks,
        record_power_series=record_power_series,
        record_task_events=record_task_events,
        fast_forward=fast_forward,
        faults=faults,
    ).run(program)
