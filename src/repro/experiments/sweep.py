"""Persistent work-queue sweep engine.

:class:`SweepEngine` replaces the one-shot ``ProcessPoolExecutor`` fan-out
the exhibits used through PR 5 with the scheduling shape the ROADMAP's
sweep service needs — and that Berg/Dorsman/Harchol-Balter frame in
"Towards Optimality in Parallel Scheduling": many parallelizable jobs
arriving over time, one fixed worker pool, response time as the metric.
Five mechanisms carry the load:

* **priority work-queue** — submissions enter a heap keyed by
  ``(priority, arrival)``; lower priority values dispatch first, ties are
  FIFO. Queued cells can be *cancelled* before dispatch, and a bounded
  queue applies **backpressure**: past ``max_pending`` queued cells, a
  pooled submit blocks until the dispatcher drains, and an in-process
  submit pays for its own backlog by draining a chunk inline.
* **persistent warm workers** — one long-lived ``ProcessPoolExecutor``
  per engine, created lazily and reused across every ``run_cells`` /
  ``submit`` for the engine's lifetime. Workers pre-import the scenario
  registries, kernels, and the simulation engine once (the pool
  initializer), so spawn + import cost is amortized over the whole sweep
  instead of paid per call.
* **chunked dispatch** — cells are batched per IPC round-trip. The chunk
  size adapts to the observed per-cell simulation cost (an exponential
  moving average fed back from the workers): expensive cells ship one at
  a time for latency, cheap cells ship :data:`CHUNK_TARGET_SECONDS` worth
  at once so the pickling round-trip is amortized.
* **in-flight dedup + read-through memo** — a submission whose
  ``cell_key`` matches a queued or running cell coalesces onto the same
  job (one simulation, many tickets); a submission matching an
  already-finished cell is served from the sharded on-disk
  :class:`~repro.experiments.parallel.ResultCache`. A bounded in-memory
  memo keeps the payloads read back from disk, so a cell asked for again
  and again is loaded once; a freshly simulated payload is written to
  disk only.
* **analytic model tier** — with ``fidelity="auto"`` a cell inside the
  calibrated envelope (:func:`repro.model.bounds.classify_cell`) is
  served in O(1) by the analytic predictor instead of being queued at
  all. Predictions carry ``CellOutcome.source == "model"`` and the cell's
  own key, and are never stored: a cached *sim* result for the same cell
  always wins, because the cache is consulted first.

Results stream: :meth:`SweepEngine.submit` returns a :class:`SweepTicket`
immediately and :meth:`SweepEngine.as_completed` yields tickets in
completion order. :meth:`SweepEngine.run_cells` returns the whole list
in submission order.

Every consumer — the CLI commands, the exhibit modules, ``repro serve``
and ad-hoc API use — runs scenarios on an engine::

    from repro.experiments.sweep import SweepEngine
    from repro.scenario import PolicySpec, ScenarioSpec

    spec = ScenarioSpec(workload="SHA-1", policy=PolicySpec("eewa"))
    with SweepEngine() as engine:
        outcome = engine.run(spec)                   # RunOutcome over seeds

:meth:`SweepEngine.run_grid` submits every (scenario × seed) cell in one
batch; :meth:`SweepEngine.run_grid_detailed` returns the per-seed
:class:`~repro.experiments.parallel.CellOutcome` records instead (cache
provenance, adjuster wall-clock bookkeeping). The default engine is
in-process and uncached; a pooled engine holds worker processes and a
dispatcher thread until it is closed, so use it as a context manager::

    with SweepEngine(workers=2, cache_dir=".repro-cache") as engine:
        outcomes = engine.run_grid(specs)

Determinism contract: the engine changes *where and when* cells run,
never *what* they compute — every simulation remains a pure seeded
function of its ``cell_key`` inputs, so results are bit-identical
in-process, pooled, chunked, or cached (gated by
``tests/experiments/test_sweep_golden.py`` over the golden cells).

With ``workers`` ≤ 1 the engine is fully synchronous and thread-free:
queued work executes lazily, in priority order, inside whichever caller
first waits on a ticket. This keeps single-CPU hosts and the test suite
deterministic while exercising the identical queue/chunk/dedup code
paths as the pooled mode.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from typing import Any, Iterator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.outcome import RunOutcome, modal_levels_from_result
from repro.experiments.parallel import (
    CellOutcome,
    CellSpec,
    GeneratedProgram,
    ResultCache,
    SweepStats,
    _simulate_cell,
    cell_key,
)
from repro.machine.topology import MachineConfig
from repro.model.bounds import classify_cell
from repro.model.predict import predict_cell
from repro.scenario.spec import DEFAULT_SEEDS, MachineSpec, ScenarioSpec
from repro.sim.engine import SimResult, simulate
from repro.sim.record import CellResult

#: Job lifecycle states.
_QUEUED, _DISPATCHED, _DONE, _CANCELLED = range(4)

#: Valid values of the engine's ``fidelity`` axis.
FIDELITIES = ("sim", "auto")

#: Per-IPC-round-trip budget, in seconds, the adaptive chunk sizer aims for.
CHUNK_TARGET_SECONDS = 0.25

#: Seconds :meth:`SweepEngine.close` waits for the dispatcher thread to
#: exit before declaring it wedged.
DISPATCHER_JOIN_SECONDS = 5.0

#: Hard cap on cells per dispatch chunk.
MAX_CHUNK = 32

#: Size of the in-memory LRU of payloads read back from disk.
MEMO_ENTRIES = 1024

#: Default backpressure bound on queued-but-undispatched cells.
MAX_PENDING = 10_000


def _warm_worker() -> None:
    """Pool initializer: pre-import the heavy modules once per worker.

    Importing the scenario registries pulls in every shipped policy,
    machine preset, and workload; the kernels package is the cost model's
    backing data. Paying this once per *worker* instead of once per
    *pickled callable invocation* is what makes the pool "warm".
    """
    import repro.kernels  # noqa: F401
    import repro.scenario.registry  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.workloads.benchmarks  # noqa: F401


def _simulate_chunk(
    argsets: Sequence[tuple],
) -> list[tuple[dict[str, Any], float]]:
    """Run a chunk of cells in one IPC round-trip.

    Returns ``(payload, seconds)`` per cell; the wall seconds feed the
    dispatcher's chunk-size estimator only and never enter a payload.
    """
    out: list[tuple[dict[str, Any], float]] = []
    for args in argsets:
        started = time.perf_counter()
        payload = _simulate_cell(*args)
        out.append((payload, time.perf_counter() - started))
    return out


class _Job:
    """One unique in-flight cell; many tickets may share it."""

    __slots__ = ("key", "args", "priority", "seq", "state", "tickets")

    def __init__(self, key: str, args: tuple, priority: int, seq: int) -> None:
        self.key = key
        self.args = args
        self.priority = priority
        self.seq = seq
        self.state = _QUEUED
        self.tickets: list[SweepTicket] = []


class SweepTicket:
    """Handle for one submitted cell: await, poll, or cancel it.

    Tickets coalesced onto one in-flight job each resolve to their own
    :class:`~repro.experiments.parallel.CellOutcome` (same result object,
    per-ticket spec). ``result()`` raises ``CancelledError`` for a
    successfully cancelled ticket.
    """

    __slots__ = ("spec", "key", "future", "_engine", "_job")

    def __init__(
        self,
        engine: "SweepEngine",
        spec: CellSpec,
        key: str,
        job: Optional[_Job] = None,
    ) -> None:
        self.spec = spec
        self.key = key
        self.future: Future = Future()
        self._engine = engine
        self._job = job

    def result(self, timeout: Optional[float] = None) -> CellOutcome:
        """Block until this cell resolves (driving the queue if in-process).

        ``timeout`` raises ``TimeoutError`` when exceeded. In-process the
        deadline is checked between chunks (a running chunk is never
        interrupted), so the wait can overshoot by one chunk's runtime;
        ``timeout=0`` is a pure non-blocking poll.
        """
        return self._engine._wait(self, timeout)

    def done(self) -> bool:
        return self.future.done()

    def cancelled(self) -> bool:
        return self.future.cancelled()

    def cancel(self) -> bool:
        """Cancel if still queued; ``False`` once dispatched or resolved."""
        return self._engine.cancel(self)


class SweepEngine:
    """Priority work-queue over a persistent warm worker pool.

    Parameters
    ----------
    workers:
        Worker process count; ``0``/``1`` runs in-process (the default:
        synchronous, thread-free and deterministic), ``None`` uses
        ``os.cpu_count()``.
    cache_dir:
        Sharded result-cache root; ``None`` (default) disables the on-disk
        cache *and* the in-memory memo (every distinct cell then
        simulates).
    fast_forward:
        Engine steady-state fast-forward (part of every cell key).
    max_pending:
        Backpressure bound on queued-but-undispatched cells; ``repro
        serve`` admits a request only while it fits under this bound.
    fidelity:
        ``"sim"`` (default) simulates every cell; ``"auto"`` serves
        cells inside the calibrated envelope from the analytic predictor
        and simulates the rest.

    A cell that carries no machine runs on the default preset's.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = 0,
        cache_dir: str | os.PathLike[str] | None = None,
        fast_forward: bool = True,
        max_pending: int = MAX_PENDING,
        fidelity: str = "sim",
    ) -> None:
        if workers is not None and workers < 0:
            raise ConfigurationError("workers must be non-negative")
        if fidelity not in FIDELITIES:
            raise ConfigurationError(
                f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
            )
        if max_pending < 1:
            raise ConfigurationError("max_pending must be positive")
        self._machine = MachineSpec().build()
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = SweepStats()
        self.fidelity = fidelity
        self._fast_forward = fast_forward
        #: Backpressure bound on queued-but-undispatched cells.
        self.max_pending = max_pending
        self._pool_workers = workers if workers is not None else (os.cpu_count() or 1)
        self._pooled = self._pool_workers > 1

        self._lock = threading.RLock()
        self._not_full = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._heap: list[tuple[int, int, _Job]] = []
        self._queued = 0  # live queued (not dispatched/cancelled) jobs
        self._inflight: dict[str, _Job] = {}
        self._memo: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._seq = itertools.count()
        self._ema_cell_seconds: Optional[float] = None
        self._submit_gate = 0  # >0: a batch submit is enqueueing; hold dispatch
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_inflight = 0  # chunks currently at the pool
        self._dispatcher: Optional[threading.Thread] = None
        self._closed = False

    # -- submission ------------------------------------------------------

    def submit(
        self,
        spec: CellSpec,
        *,
        priority: int = 0,
        fidelity: Optional[str] = None,
    ) -> SweepTicket:
        """Enqueue one cell; returns immediately with a ticket.

        A submission coalesces onto an identical in-flight cell, resolves
        instantly from the cache (or, under ``"auto"``, the model), or
        joins the priority queue. Only the last two need the cell's
        program: a coalesced or cached cell is found by its key alone.
        However it is served, the outcome's ``result`` is a
        :class:`~repro.sim.record.CellResult`: scalars, per-batch trace and
        task rows, without the energy meter or ``Task`` objects (a full
        :class:`~repro.sim.engine.SimResult` comes only from
        :func:`~repro.sim.engine.simulate`, e.g. through
        ``run_single(record_power_series=True)``).
        ``fidelity`` overrides the engine default for this one cell —
        consumers that need the per-batch trace or task rows pass
        ``"sim"`` to bypass the model tier, whose records carry neither.
        """
        if fidelity is not None and fidelity not in FIDELITIES:
            raise ConfigurationError(
                f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
            )
        cell_fidelity = fidelity if fidelity is not None else self.fidelity
        machine = spec.machine if spec.machine is not None else self._machine
        source = spec.program_source()
        key = cell_key(
            source, spec.policy, machine, spec.seed,
            core_levels=spec.core_levels, eewa_config=spec.eewa_config,
            policy_params=spec.policy_params,
            fast_forward=self._fast_forward,
            faults=spec.faults,
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("SweepEngine is closed")
            self.stats.cells += 1
            ticket = self._served_locked(spec, key, lookup=True)
            if ticket is not None:
                return ticket
            executed = self.stats.executed
        # A miss needs the program. It is generated outside the lock, so
        # other submits and finishing chunks do not wait for it.
        program = (
            source.generate(spec.seed)
            if isinstance(source, GeneratedProgram) else source
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("SweepEngine is closed")
            # Meanwhile another submit may have queued this cell, or a
            # finished chunk may have cached it.
            ticket = self._served_locked(
                spec, key, lookup=self.stats.executed != executed
            )
            if ticket is not None:
                return ticket

            if cell_fidelity == "auto":
                ticket = self._model_ticket(spec, key, program, machine)
                if ticket is not None:
                    return ticket

            self._apply_backpressure()
            args = (
                program, spec.policy, machine, spec.seed,
                spec.core_levels, spec.eewa_config, spec.policy_params,
                self._fast_forward, spec.faults,
            )
            job = _Job(key, args, priority, next(self._seq))
            ticket = SweepTicket(self, spec, key, job)
            job.tickets.append(ticket)
            self._inflight[key] = job
            heapq.heappush(self._heap, (priority, job.seq, job))
            self._queued += 1
            if self._pooled:
                self._ensure_dispatcher()
                self._work.notify()
            return ticket

    def submit_many(
        self,
        specs: Sequence[CellSpec],
        *,
        priority: int = 0,
        fidelity: Optional[str] = None,
    ) -> list[SweepTicket]:
        """Submit a batch atomically with respect to dispatch.

        The dispatcher holds off until the whole batch is enqueued, so
        duplicates *within* the batch coalesce — the accounting a grid
        sweep's dedup statistics rely on. One exception keeps batches
        bigger than ``max_pending`` from deadlocking against their own
        backpressure: at the bound the dispatcher drains even mid-batch.
        Duplicates still resolve to one simulation (a dispatched job
        coalesces until it completes, after which the cache serves it).
        ``fidelity`` overrides the engine default for the whole batch
        (the per-request axis the sweep service forwards).
        """
        with self._lock:
            self._submit_gate += 1
        try:
            return [
                self.submit(spec, priority=priority, fidelity=fidelity)
                for spec in specs
            ]
        finally:
            with self._lock:
                self._submit_gate -= 1
                self._work.notify_all()

    def cancel(self, ticket: SweepTicket) -> bool:
        """Cancel a queued ticket; its future moves to ``CancelledError``.

        Coalesced tickets cancel independently — the underlying cell is
        only withdrawn from the queue when its last ticket cancels. A
        dispatched or resolved ticket cannot be cancelled.
        """
        with self._lock:
            job = ticket._job
            if job is None or job.state != _QUEUED:
                return False
            if not ticket.future.cancel():
                return False
            self.stats.cancelled += 1
            job.tickets.remove(ticket)
            if not job.tickets:
                job.state = _CANCELLED  # heap entry is dropped lazily
                self._inflight.pop(job.key, None)
                self._queued -= 1
                self._not_full.notify_all()
            return True

    # -- retrieval -------------------------------------------------------

    def run_cells(self, specs: Sequence[CellSpec]) -> list[CellOutcome]:
        """All cells, results in submission order (the classic contract)."""
        tickets = self.submit_many(specs)
        return [ticket.result() for ticket in tickets]

    # -- scenarios -------------------------------------------------------

    def run(self, spec: ScenarioSpec) -> RunOutcome:
        """Run one scenario over its seeds → a multi-seed RunOutcome."""
        (outcome,) = self.run_grid([spec])
        return outcome

    def run_grid(self, specs: Sequence[ScenarioSpec]) -> list[RunOutcome]:
        """Run many scenarios in one fan-out, one RunOutcome per spec."""
        return [
            RunOutcome(
                benchmark=spec.workload_name,
                policy=spec.policy.name,
                results=tuple(cell.result for cell in cells),
            )
            for spec, cells in zip(specs, self.run_grid_detailed(specs))
        ]

    def run_grid_detailed(
        self, specs: Sequence[ScenarioSpec]
    ) -> list[list[CellOutcome]]:
        """Run many scenarios in one fan-out, grouped per spec.

        All cells go through a single :meth:`run_cells` call, so identical
        cells across scenarios are simulated once and the process pool
        sees the whole sweep at once.
        """
        cells = []
        counts: list[int] = []
        for spec in specs:
            counts.append(len(spec.seeds))
            cells.extend(CellSpec.from_scenario_seeds(spec))
        outcomes = self.run_cells(cells)
        grouped: list[list[CellOutcome]] = []
        pos = 0
        for count in counts:
            grouped.append(outcomes[pos : pos + count])
            pos += count
        return grouped

    def run_single(
        self,
        spec: ScenarioSpec,
        *,
        seed: Optional[int] = None,
        record_power_series: bool = False,
    ) -> SimResult | CellResult:
        """One seed's simulated result (default: the first seed).

        Always simulates regardless of the engine's ``fidelity``: the
        per-batch trace and task rows are the contract, and the analytic
        model does not produce them. The cell runs through the engine and
        its cache, so the result is a :class:`~repro.sim.record.CellResult`
        record, which has no energy meter and no ``Task`` objects.
        ``record_power_series=True`` is the path that returns a full
        :class:`~repro.sim.engine.SimResult`: it runs outside the queue
        and cache, since power traces are observability extras the
        content-addressed cache does not store (and the simulator turns
        fast-forward off to record them).
        """
        if seed is None:
            seed = spec.seeds[0]
        if record_power_series:
            return simulate(
                spec.program(seed),
                spec.build_policy(),
                spec.build_machine(),
                seed=seed,
                record_power_series=True,
                faults=spec.faults,
            )
        return self.submit(
            CellSpec.from_scenario(spec, seed), fidelity="sim"
        ).result().result

    def modal_eewa_levels(
        self, spec: ScenarioSpec, *, seed: Optional[int] = None
    ) -> list[int]:
        """Per-core level vector of EEWA's most-used configuration.

        Runs the scenario under EEWA for one seed (default
        ``DEFAULT_SEEDS[0]``, the Fig. 7 convention) and reads the modal
        configuration off the trace. Shares its cell — and any cache entry
        — with plain EEWA runs of the same scenario and seed.
        """
        resolved = spec.with_policy("eewa")
        result = self.run_single(
            resolved, seed=DEFAULT_SEEDS[0] if seed is None else seed
        )
        machine = resolved.build_machine()
        return modal_levels_from_result(result, machine.num_cores, machine)

    def as_completed(
        self, tickets: Sequence[SweepTicket], *, timeout: Optional[float] = None
    ) -> Iterator[SweepTicket]:
        """Yield tickets in *completion* order (cache hits first).

        Keyed by ticket identity, not by future: tickets coalesced onto
        one deduplicated cell share a future but are still yielded one
        each — exactly as many tickets come out as went in. ``timeout``
        bounds the *total* wait; when it expires a ``TimeoutError`` is
        raised with the already-yielded tickets consumed and the rest
        still pending (in-process, a chunk already running is never
        interrupted, so the deadline can overshoot by one chunk).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = list(tickets)
        while pending:
            done_now = [t for t in pending if t.future.done()]
            if done_now:
                done_ids = {id(t) for t in done_now}
                pending = [t for t in pending if id(t) not in done_ids]
                yield from done_now
                continue
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"{len(pending)} of {len(tickets)} cells unresolved "
                    f"after {timeout} s"
                )
            if self._pooled:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                _futures_wait(
                    {t.future for t in pending},
                    timeout=remaining,
                    return_when=FIRST_COMPLETED,
                )
            else:
                with self._lock:
                    if not self._run_one_chunk_locked():
                        # Nothing runnable is left; whatever remains must
                        # already be resolved (or cancelled) — drain it.
                        yield from pending
                        return

    # -- lifecycle -------------------------------------------------------

    def close(self, *, wait: bool = True) -> None:
        """Cancel queued work and shut the pool down (idempotent).

        A dispatcher thread that fails to join within
        :data:`DISPATCHER_JOIN_SECONDS` is reported with a
        ``RuntimeWarning`` instead of leaking silently — a wedged
        dispatcher means a pool round-trip never returned and the engine
        should not be trusted for reuse in this process.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _, _, job in self._heap:
                if job.state != _QUEUED:
                    continue
                job.state = _CANCELLED
                self._inflight.pop(job.key, None)
                for ticket in job.tickets:
                    if ticket.future.cancel():
                        self.stats.cancelled += 1
            self._heap.clear()
            self._queued = 0
            self._work.notify_all()
            self._not_full.notify_all()
            pool, self._pool = self._pool, None
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.join(timeout=DISPATCHER_JOIN_SECONDS)
            if dispatcher.is_alive():
                warnings.warn(
                    "SweepEngine dispatcher thread failed to join within "
                    f"{DISPATCHER_JOIN_SECONDS:.1f} s and is leaked; "
                    "a pool round-trip is likely wedged",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- observability ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Cells queued but not yet dispatched."""
        with self._lock:
            return self._queued

    @property
    def chunk_size(self) -> int:
        """Cells the next dispatch round-trip would carry."""
        with self._lock:
            return self._chunk_size_locked()

    @property
    def ema_cell_seconds(self) -> Optional[float]:
        """Smoothed observed per-cell simulation cost (``None`` until fed)."""
        with self._lock:
            return self._ema_cell_seconds

    # -- internals: model tier ------------------------------------------

    def _model_ticket(
        self,
        spec: CellSpec,
        key: str,
        program: tuple,
        machine: MachineConfig,
    ) -> Optional[SweepTicket]:
        """Serve one cell from the analytic model, or ``None`` to simulate.

        Called with the lock held, after the in-flight and cache checks —
        a cell whose *simulation* is cached is therefore served that
        result, never re-predicted. A prediction is never stored: its
        outcome carries the cell's own key with ``from_cache=False``, and
        the same cell submitted again is predicted again.
        """
        if not classify_cell(
            program, spec.policy, machine,
            core_levels=spec.core_levels, eewa_config=spec.eewa_config,
            policy_params=spec.policy_params, faults=spec.faults,
        ):
            return None
        result = predict_cell(
            program, spec.policy, machine, spec.seed,
            core_levels=spec.core_levels, eewa_config=spec.eewa_config,
            policy_params=spec.policy_params, faults=spec.faults,
        )
        if result is None:
            return None
        self.stats.model_cells += 1
        ticket = SweepTicket(self, spec, key)
        # No adjuster runs against a wall clock for a prediction, so its
        # adjuster fields keep their zero defaults.
        ticket.future.set_result(CellOutcome(
            spec=spec, key=key, result=result, from_cache=False,
            source="model",
        ))
        return ticket

    # -- internals: cache/memo ------------------------------------------

    def _served_locked(
        self, spec: CellSpec, key: str, *, lookup: bool
    ) -> Optional[SweepTicket]:
        """A ticket coalesced onto the in-flight job for ``key`` or, with
        ``lookup``, served from the cache; ``None`` when neither has it.
        Called with the lock held."""
        job = self._inflight.get(key)
        if job is not None:
            ticket = SweepTicket(self, spec, key, job)
            job.tickets.append(ticket)
            self.stats.deduplicated += 1
            return ticket
        payload = self._lookup_cached(key) if lookup else None
        if payload is None:
            return None
        self.stats.cache_hits += 1
        ticket = SweepTicket(self, spec, key)
        ticket.future.set_result(
            self._outcome(spec, key, payload, from_cache=True)
        )
        return ticket

    def _lookup_cached(self, key: str) -> Optional[dict[str, Any]]:
        """The cached payload for ``key``, or ``None``.

        The memo is read-through: it holds only payloads read back from
        disk, so it costs memory only for cells a sweep asks for again.
        """
        if self.cache is None:
            return None
        payload = self._memo.get(key)
        if payload is not None:
            self._memo.move_to_end(key)
            self.stats.memo_hits += 1
            return payload
        payload = self.cache.get(key)
        if payload is not None:
            self._memo[key] = payload
            if len(self._memo) > MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return payload

    @staticmethod
    def _outcome(
        spec: CellSpec, key: str, payload: dict[str, Any], *, from_cache: bool
    ) -> CellOutcome:
        return CellOutcome(
            spec=spec,
            key=key,
            result=payload["result"],
            from_cache=from_cache,
            adjuster_wallclock_s=payload["adjuster_wallclock_s"],
            adjuster_decisions=payload["adjuster_decisions"],
        )

    # -- internals: queue/backpressure ----------------------------------

    def _apply_backpressure(self) -> None:
        # Called with the lock held, before enqueueing a new job.
        while not self._closed and self._queued >= self.max_pending:
            if self._pooled:
                # Wake the dispatcher: once the queue is at the bound it
                # dispatches even while a batch submit holds the gate
                # (see _dispatch_loop) — that drain is what makes room
                # for this submit to proceed.
                self._work.notify()
                self._not_full.wait()
            else:
                # In-process there is no one else to drain the queue: the
                # submitter pays for its own backlog.
                if not self._run_one_chunk_locked():
                    break
        if self._closed:
            # close() raced us while we were parked above; enqueueing now
            # would create a job no dispatcher will ever resolve.
            raise RuntimeError("SweepEngine is closed")

    def _chunk_size_locked(self) -> int:
        ema = self._ema_cell_seconds
        if ema is None or ema <= 0:
            return 1  # no cost estimate yet: smallest chunk, fast feedback
        return max(1, min(MAX_CHUNK, int(CHUNK_TARGET_SECONDS / ema)))

    def _pop_chunk_locked(self) -> list[_Job]:
        size = self._chunk_size_locked()
        chunk: list[_Job] = []
        while self._heap and len(chunk) < size:
            _, _, job = heapq.heappop(self._heap)
            if job.state != _QUEUED:
                continue  # cancelled entry, dropped lazily
            job.state = _DISPATCHED
            self._queued -= 1
            chunk.append(job)
        if chunk:
            self._not_full.notify_all()
        return chunk

    def _observe_cell_seconds(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if self._ema_cell_seconds is None:
            self._ema_cell_seconds = seconds
        else:
            self._ema_cell_seconds = 0.7 * self._ema_cell_seconds + 0.3 * seconds

    def _complete_chunk(
        self,
        chunk: Sequence[_Job],
        results: Sequence[tuple[dict[str, Any], float]],
    ) -> None:
        # Called with the lock held.
        for job, (payload, seconds) in zip(chunk, results):
            self._observe_cell_seconds(seconds)
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.put(job.key, payload)
            job.state = _DONE
            self._inflight.pop(job.key, None)
            for ticket in job.tickets:
                if not ticket.future.cancelled():
                    ticket.future.set_result(
                        self._outcome(
                            ticket.spec, job.key, payload, from_cache=False
                        )
                    )
        self.stats.chunks += 1

    def _fail_chunk(self, chunk: Sequence[_Job], exc: BaseException) -> None:
        # Called with the lock held.
        for job in chunk:
            job.state = _DONE
            self._inflight.pop(job.key, None)
            for ticket in job.tickets:
                if not ticket.future.cancelled():
                    ticket.future.set_exception(exc)

    # -- internals: in-process execution --------------------------------

    def _run_one_chunk_locked(self) -> bool:
        chunk = self._pop_chunk_locked()
        if not chunk:
            return False
        try:
            results = _simulate_chunk([job.args for job in chunk])
        except BaseException as exc:
            self._fail_chunk(chunk, exc)
            return True
        self._complete_chunk(chunk, results)
        return True

    def _wait(
        self, ticket: SweepTicket, timeout: Optional[float] = None
    ) -> CellOutcome:
        if not self._pooled:
            # In-process, queued work executes inside this call, so the
            # timeout is honoured *between* chunks: a chunk already
            # running is never interrupted, and a wait can overshoot the
            # deadline by up to one chunk's runtime.
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            with self._lock:
                while not ticket.future.done():
                    if deadline is not None and time.monotonic() >= deadline:
                        raise TimeoutError(
                            f"cell {ticket.key} unresolved after {timeout} s"
                        )
                    if not self._run_one_chunk_locked():
                        break  # cancelled, or resolved by another waiter
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
        return ticket.future.result(timeout)

    # -- internals: pooled execution ------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._pool_workers, initializer=_warm_worker
            )
        return self._pool

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="sweep-dispatcher", daemon=True
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        max_inflight = 2 * self._pool_workers
        while True:
            with self._lock:
                # The submit gate holds dispatch only while the queue is
                # below the backpressure bound: a batch bigger than
                # max_pending parks its own submit on _not_full, so the
                # gate must yield there or batch and dispatcher deadlock
                # waiting on each other. Dispatched jobs stay in
                # _inflight until they resolve, so later duplicates in
                # the batch still coalesce.
                while not self._closed and (
                    self._queued == 0
                    or (
                        self._submit_gate > 0
                        and self._queued < self.max_pending
                    )
                    or self._pool_inflight >= max_inflight
                ):
                    self._work.wait(timeout=0.1)
                if self._closed:
                    return
                chunk = self._pop_chunk_locked()
                if not chunk:
                    continue
                self._pool_inflight += 1
                try:
                    pool = self._ensure_pool()
                    future = pool.submit(
                        _simulate_chunk, [job.args for job in chunk]
                    )
                except BaseException as exc:  # pool spawn/submit failure
                    self._pool_inflight -= 1
                    self._fail_chunk(chunk, exc)
                    continue
            future.add_done_callback(
                lambda f, chunk=chunk: self._on_chunk_done(chunk, f)
            )

    def _on_chunk_done(self, chunk: list[_Job], future: Future) -> None:
        with self._lock:
            self._pool_inflight -= 1
            try:
                results = future.result()
            except BaseException as exc:
                self._fail_chunk(chunk, exc)
            else:
                self._complete_chunk(chunk, results)
            self._work.notify_all()


__all__ = ["FIDELITIES", "MAX_PENDING", "SweepEngine", "SweepTicket"]
