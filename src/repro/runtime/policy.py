"""Scheduler policy interface.

A :class:`SchedulerPolicy` owns task placement and acquisition; the
discrete-event engine owns time, core states, DVFS mechanics, and energy.
The split mirrors the paper's architecture: MIT Cilk's scheduler was
modified, the hardware wasn't.

The engine drives a policy through a narrow contract:

* ``on_program_start`` / ``on_batch_start`` / ``on_task_complete`` /
  ``on_batch_end`` — lifecycle notifications;
* ``next_action(core_id)`` — called whenever a core is free; returns a
  :class:`RunTask`, :class:`SetFrequency` (switch P-state, then ask again),
  or :class:`Wait` (nothing stealable: spin until new work appears).

Policies talk back through :class:`RuntimeContext` (implemented by the
engine) for time, frequency control and RNG streams.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Protocol, Sequence

from repro.machine.topology import MachineConfig
from repro.runtime.task import Batch, Task


class RunTask(NamedTuple):
    """Execute ``task`` on the requesting core.

    ``acquire_cycles`` is the scheduling cost paid before execution starts
    (local pop vs remote steal), charged at the core's current frequency.
    """

    task: Task
    acquire_cycles: float = 0.0


class SetFrequency(NamedTuple):
    """Switch the requesting core to ``level`` and then ask again.

    Used by Cilk-D to drop an idle core to the lowest frequency and to
    restore it when work shows up.
    """

    level: int


class Wait(NamedTuple):
    """No runnable work anywhere this core may look.

    The core spins (at full power for its current frequency) until the
    engine wakes it — or, if ``retry_after`` is set, until that many
    seconds pass, whichever is first. Timed retries let policies implement
    reaction delays (e.g. Cilk-D's idle-detection grace period) without an
    engine-side timer API.

    The failed victim scan that led here takes no simulated time or
    energy, so the core can be woken at the same instant. (Billing a scan
    cost would move every golden hash.)
    """

    retry_after: Optional[float] = None


#: A closed union of immutable ``NamedTuple``\s, which build faster than
#: frozen dataclasses (most dispatches build one). The engine dispatches
#: on the exact type, so an instance of a subclass is rejected as an
#: unknown action.
Action = RunTask | SetFrequency | Wait


@dataclass(frozen=True)
class BatchAdjustment:
    """What a policy wants done between batches.

    Parameters
    ----------
    frequency_levels:
        Optional per-core target DVFS levels, ``len == num_cores``; ``None``
        entries leave a core untouched.
    overhead_seconds:
        Simulated time consumed by the adjustment decision itself (e.g. the
        backtracking search), inserted before the next batch launches. This
        is what Table III reports.
    """

    frequency_levels: Optional[Sequence[Optional[int]]] = None
    overhead_seconds: float = 0.0


class RuntimeContext(Protocol):
    """Engine services available to policies."""

    @property
    def machine(self) -> MachineConfig: ...

    def now(self) -> float: ...

    def core_level(self, core_id: int) -> int:
        """Current *effective* DVFS level of a core."""
        ...

    def requested_level(self, core_id: int) -> int:
        """The level the core last requested (may be pinned faster by a
        shared DVFS domain)."""
        ...

    def rng_choice(self, stream: str, options: Sequence[int]) -> int:
        """Deterministic random choice from a named stream."""
        ...

    def rng_shuffled(self, stream: str, options: Sequence[int]) -> list[int]:
        """Deterministic random permutation from a named stream."""
        ...

    # The tracing hooks below are optional: policies access them through
    # ``getattr`` so scripted test contexts that predate them keep working.

    def pool_observer(self):  # -> Optional[PoolObserver]
        """Pool-event sink for deep tracing; ``None`` when not recording."""
        ...

    def trace_plan(
        self, group_of_core: Sequence[int], group_levels: Sequence[int]
    ) -> None:
        """Record a c-group plan installation for the race detector."""
        ...


@dataclass
class PolicyStats:
    """Counters every policy accumulates (checked by conservation tests)."""

    tasks_executed: int = 0
    tasks_stolen: int = 0
    local_pops: int = 0
    failed_scans: int = 0
    cross_group_steals: int = 0
    extra: dict[str, float] = field(default_factory=dict)


class SchedulerPolicy(abc.ABC):
    """Base class for Cilk, Cilk-D, WATS and EEWA policies."""

    #: Human-readable policy name used in reports.
    name: str = "abstract"

    def __init__(self) -> None:
        self.ctx: Optional[RuntimeContext] = None
        self.stats = PolicyStats()
        #: The machine's task-acquisition costs in cycles (local pop,
        #: steal), fixed for a run and bound by :meth:`bind` so that
        #: dispatch does not look them up for every action.
        self._pop_cycles = 0.0
        self._steal_cycles = 0.0
        #: The untimed ``Wait`` a failed scan returns (actions are
        #: immutable, so one instance serves every dispatch).
        self._wait = Wait()

    # -- lifecycle ----------------------------------------------------------

    def bind(self, ctx: RuntimeContext) -> None:
        """Attach the engine context. Called once before the program starts."""
        self.ctx = ctx
        machine = ctx.machine
        self._pop_cycles = machine.pop_cycles
        self._steal_cycles = machine.steal_cycles

    def on_program_start(self) -> BatchAdjustment | None:
        """Called before the first batch. May set initial frequencies."""
        return None

    @abc.abstractmethod
    def on_batch_start(self, batch: Batch, tasks: Sequence[Task]) -> None:
        """Place the batch's root tasks into pools."""

    @abc.abstractmethod
    def next_action(self, core_id: int) -> Action:
        """Decide what the free core ``core_id`` does next."""

    def on_spawn(self, core_id: int, task: Task) -> None:
        """Place a task spawned mid-execution. Default: no support needed."""
        raise NotImplementedError(f"{self.name} does not support nested spawns")

    def on_task_complete(self, core_id: int, task: Task) -> None:
        """Observe a completed task (profiling hook)."""

    def on_dvfs_denied(self, core_id: int, level: int) -> None:
        """The platform denied this policy's DVFS request (fault injection).

        ``level`` is the level that was requested and refused; the core
        stays at its previous frequency. The default just counts the
        denial — any policy is already correct under denial because the
        engine keeps the core schedulable — but policies that *plan*
        around frequency (EEWA) override this to degrade gracefully.
        """
        self.stats.extra["dvfs_denied"] = (
            self.stats.extra.get("dvfs_denied", 0.0) + 1.0
        )

    def on_batch_end(self, batch_index: int) -> BatchAdjustment | None:
        """Batch barrier reached; optionally adjust frequencies (EEWA)."""
        return None

    def on_program_end(self) -> None:
        """Program finished; final bookkeeping."""

    def state_fingerprint(self) -> Optional[str]:
        """Digest of all *decision-relevant* policy state, or ``None``.

        The engine's steady-state fast-forward compares this digest at
        batch boundaries: two boundaries with equal fingerprints (and equal
        engine-side state) must make byte-identical decisions for identical
        batches. Returning ``None`` — the default — declares the policy
        opaque and disables fast-forward entirely, which is always sound.

        Implementations must cover every piece of state that influences
        future actions (installed plans, round-robin cursors, residual
        pooled tasks, profiler accumulators) and must *exclude* grow-only
        bookkeeping (stats counters, decision logs) that never feeds back
        into scheduling. An unsound fingerprint is caught loudly by the
        ``fast_forward_parity`` conformance check.
        """
        return None

    # -- shared helpers -------------------------------------------------------

    def _require_ctx(self) -> RuntimeContext:
        if self.ctx is None:
            raise RuntimeError(f"policy {self.name} used before bind()")
        return self.ctx
