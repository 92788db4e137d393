"""Simulated core model.

A :class:`SimCore` is a small state machine owned by the discrete-event
engine. It tracks the core's current DVFS level and what the core is doing,
which is all the energy meter needs: the paper's energy story is entirely
"which frequency is each core burning, and is it burning at all".

States
------
``SPINNING``
    The core has no task and is busy-waiting in the steal loop. Work-stealing
    runtimes like MIT Cilk keep idle workers spinning, so a spinning core
    draws the *same* power as a running one at the same frequency — this is
    precisely the waste EEWA attacks (Section II).
``RUNNING``
    Executing a task.
``TRANSITION``
    Mid DVFS switch; the core is stalled and billed at idle power.
``PARKED``
    Not yet started / program finished; billed at idle power.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError, SimulationError
from repro.machine.operating_point import DEFAULT_CORE_TYPE, OperatingPointSpace


class CoreState(enum.Enum):
    """What a simulated core is doing right now."""

    PARKED = "parked"
    SPINNING = "spinning"
    RUNNING = "running"
    TRANSITION = "transition"

    #: Enum's default ``__hash__`` is a Python-level function and core
    #: states key the energy meter's per-state dicts on every observation;
    #: the identity slot wrapper makes those lookups C-speed. Dicts iterate
    #: in insertion order, so this cannot perturb determinism.
    __hash__ = object.__hash__


#: States billed at full busy power for the core's current frequency.
BUSY_STATES = frozenset({CoreState.RUNNING, CoreState.SPINNING})


@dataclass(slots=True)
class SimCore:
    """One simulated core.

    ``slots=True``: the engine touches core attributes on every event, and
    a few hundred instances exist per simulated machine — slot storage
    makes both the footprint and the attribute loads cheaper.

    Parameters
    ----------
    core_id:
        Dense index in ``[0, m)``.
    scale:
        The core's (one-type) ladder; the core's ``level`` indexes into
        it. On homogeneous machines this is the machine's scale itself.
    level:
        Current DVFS level (0 = fastest), local to this core's ladder.
    core_type:
        Name of this core's type ("core" on homogeneous machines).
    ipc_scale:
        Relative IPC of this core's type: reference cycles retire at
        ``ipc_scale * frequency`` per second.
    """

    core_id: int
    scale: OperatingPointSpace
    level: int = 0
    state: CoreState = CoreState.PARKED
    core_type: str = DEFAULT_CORE_TYPE
    ipc_scale: float = 1.0
    pending_level: Optional[int] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.core_id < 0:
            raise ConfigurationError("core_id must be non-negative")
        if self.ipc_scale <= 0.0:
            raise ConfigurationError("ipc_scale must be positive")
        self.scale.validate_index(self.level)

    # -- views -------------------------------------------------------------

    @property
    def frequency(self) -> float:
        """Current electrical frequency in hertz (drives power draw)."""
        return self.scale[self.level]

    @property
    def effective_hz(self) -> float:
        """Reference cycles retired per second at the current level.

        Equal to ``frequency`` on homogeneous machines — multiplying by
        an ``ipc_scale`` of 1.0 is an IEEE-754 identity, so every duration
        derived from it is bit-identical to the pre-operating-point code.
        """
        return self.scale[self.level] * self.ipc_scale

    @property
    def is_busy(self) -> bool:
        return self.state in BUSY_STATES

    @property
    def in_transition(self) -> bool:
        return self.state is CoreState.TRANSITION

    # -- transitions (invoked by the engine only) ---------------------------
    #
    # Starting and finishing a task are not methods: the engine's per-core
    # slot is the one record of which task a core runs, and the engine
    # moves ``state`` between SPINNING and RUNNING itself as it fills and
    # empties that slot.

    def begin_transition(self, new_level: int) -> None:
        if self.state is CoreState.RUNNING:
            raise SimulationError(
                f"core {self.core_id} cannot change frequency while running a task"
            )
        self.scale.validate_index(new_level)
        self.pending_level = new_level
        self.state = CoreState.TRANSITION

    def complete_transition(self) -> None:
        if self.state is not CoreState.TRANSITION or self.pending_level is None:
            raise SimulationError(f"core {self.core_id} is not mid-transition")
        self.level = self.pending_level
        self.pending_level = None
        self.state = CoreState.SPINNING

    def spin(self) -> None:
        if self.state is CoreState.RUNNING:
            raise SimulationError(f"core {self.core_id} is running; cannot spin")
        self.state = CoreState.SPINNING

    def park(self) -> None:
        if self.state is CoreState.RUNNING:
            raise SimulationError(f"core {self.core_id} is running; cannot park")
        self.state = CoreState.PARKED

    def exec_seconds(self, cpu_cycles: float, mem_stall_seconds: float = 0.0) -> float:
        """Wall time this core needs for a task of the given cost.

        CPU work scales with the core's effective speed (frequency times
        IPC scale); memory stalls do not (Section IV-D: memory-bound
        execution time "does not have a simple model related to CPU
        frequencies" — we model it as a frequency-independent component).
        """
        if cpu_cycles < 0 or mem_stall_seconds < 0:
            raise SimulationError("task costs must be non-negative")
        return cpu_cycles / self.effective_hz + mem_stall_seconds
