"""Exact energy accounting for the simulated machine.

The paper measures whole-machine energy at the wall and averages over 100
runs. Our simulated equivalent is exact: every core's power draw is a
piecewise-constant function of time (it changes only when the core's state
or frequency changes), so energy is the exact sum of ``power * dt`` over the
pieces, plus ``machine_base_power * total_time``.

The meter also keeps per-state and per-frequency-level breakdowns; those
drive the analysis of *where* each scheduler spends energy (spin waste vs
useful work) and the Fig. 8-style traces.

Billing is deferred per segment. An observation only records the length of
the interval it closes; a core's recorded intervals are billed together
when its (state, level) changes, or when the accounts are read. Billing a
segment performs, for each accumulator, the additions interval-by-interval
billing would have performed, in the same order: one loop over the
intervals adds each to all five accumulators, held in locals, so the
floats are bit-identical. (Not ``sum()``: since Python 3.12 it adds floats
with compensation, which rounds differently.)

A segment ends when its core's draw differs from the one it was billed
at, so an observation that closes an interval compares cores with their
segments. The engine changes one core at a time and names it:
``observe(now, core)`` precedes a change to ``core`` alone, and the next
observation that closes an interval compares only the cores named since
the previous one. An observation naming no core (boot, a request that
retunes several cores, direct use of the meter) makes the next one
compare every core. Either way the same segments close at the same
interval indices, so the additions and their order are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError
from repro.machine.core import BUSY_STATES, CoreState, SimCore
from repro.machine.power import PowerModel

#: Recorded intervals after which every core is billed and the record
#: cleared, so a long run holds a bounded list. Splitting a segment's
#: billing in two performs the same additions, so this changes no float.
_SETTLE_EVERY = 4096


@dataclass
class CoreEnergyAccount:
    """Accumulated energy and time for one core, broken down by state/level."""

    joules: float = 0.0
    seconds: float = 0.0
    joules_by_state: dict[CoreState, float] = field(default_factory=dict)
    seconds_by_state: dict[CoreState, float] = field(default_factory=dict)
    seconds_by_level: dict[int, float] = field(default_factory=dict)

    def bill(
        self, state: CoreState, level: int, watts: float, intervals: list[float]
    ) -> None:
        """Add consecutive intervals spent at one draw.

        Every accumulator receives one addition per interval, in order —
        exactly what billing the intervals one at a time would do.
        """
        joules = self.joules
        seconds = self.seconds
        state_joules = self.joules_by_state.get(state, 0.0)
        state_seconds = self.seconds_by_state.get(state, 0.0)
        level_seconds = self.seconds_by_level.get(level, 0.0)
        for dt in intervals:
            joules_dt = watts * dt
            joules += joules_dt
            seconds += dt
            state_joules += joules_dt
            state_seconds += dt
            level_seconds += dt
        self.joules = joules
        self.seconds = seconds
        self.joules_by_state[state] = state_joules
        self.seconds_by_state[state] = state_seconds
        self.seconds_by_level[level] = level_seconds


class EnergyMeter:
    """Integrates machine power over simulated time.

    The engine calls :meth:`observe` *before* mutating any core's state or
    frequency, so every core spends the interval since the previous
    observation at its (still-current) power draw. The meter records the
    interval and bills it with the rest of the core's segment at that draw
    (see the module docstring); :meth:`finalize` closes the last interval.
    """

    def __init__(
        self,
        cores: list[SimCore],
        power: PowerModel,
        *,
        type_powers: dict[str, PowerModel] | None = None,
        record_series: bool = False,
    ) -> None:
        self._cores = cores
        self._power = power
        self._last_time = 0.0
        self._finalized = False
        # busy_power(f) is a pure function of the power model and the
        # electrical frequency; tabulating it eagerly per (core, level) —
        # i.e. per *operating point* — returns the identical floats the
        # direct calls would, so billing is unchanged bit-for-bit while
        # billing skips the voltage-curve arithmetic. A single
        # per-frequency memo would be wrong here: on heterogeneous
        # machines two core types can share an electrical frequency at
        # different wattages (different kappa / voltage curve), so the
        # table is keyed by operating point, never by bare frequency.
        def model_of(core: SimCore) -> PowerModel:
            if type_powers is not None and core.core_type in type_powers:
                return type_powers[core.core_type]
            return power

        self._busy_by_core: list[tuple[float, ...]] = [
            tuple(model_of(core).busy_power(f) for f in core.scale.levels)
            for core in cores
        ]
        self._idle_by_core: list[float] = [
            model_of(core).idle_power() for core in cores
        ]
        self._accounts = [CoreEnergyAccount() for _ in cores]
        self._power_series: list[list[tuple[float, float, float]]] | None = (
            [[] for _ in cores] if record_series else None
        )
        self._reset_record()

    def _reset_record(self) -> None:
        """Empty the interval record; every core's segment starts now."""
        cores = self._cores
        #: Lengths of the intervals observed since the record was cleared,
        #: and their (start, end) instants when a power series is recorded.
        self._dts: list[float] = []
        self._spans: list[tuple[float, float]] | None = (
            None if self._power_series is None else []
        )
        #: Per core: index of its first unbilled interval, and the state
        #: and level it has held since then.
        self._seg_start = [0] * len(cores)
        self._seg_state = [core.state for core in cores]
        self._seg_level = [core.level for core in cores]
        #: Cores named by observations since the last closed interval, the
        #: only ones whose draw may have changed; ``None`` when one named
        #: no core, so every core is compared.
        self._marked: list[int] | None = None

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        # The pickled layout is fixed, and pinned by the meter's tests: the
        # settled accounts and series under the names ``accounts`` and
        # ``power_series`` and no billing record. (Cache entries hold a
        # ``CellResult``, which has no meter.)
        self._settle()
        return {
            "_cores": self._cores,
            "_power": self._power,
            "_last_time": self._last_time,
            "_finalized": self._finalized,
            "_busy_by_core": self._busy_by_core,
            "_idle_by_core": self._idle_by_core,
            "accounts": self._accounts,
            "power_series": self._power_series,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        state = dict(state)
        self._accounts = state.pop("accounts")
        self._power_series = state.pop("power_series")
        self.__dict__.update(state)
        self._reset_record()

    # -- billing ------------------------------------------------------------

    def observe(self, now: float, core: int | None = None) -> None:
        """Record the interval ``[last, now]`` at every core's current draw.

        ``core`` names the one core the caller changes next; with ``None``
        any number of cores may change (see the module docstring).
        """
        if self._finalized:
            raise SimulationError("energy meter already finalized")
        last = self._last_time
        dt = now - last
        if dt < -1e-12:
            raise SimulationError(f"time went backwards: {last} -> {now}")
        marked = self._marked
        if dt <= 0.0:
            # A tiny negative dt within tolerance is float jitter, not time
            # travel — but rewinding to ``now`` would stretch the *next*
            # billing interval by the jitter. Keep the later instant.
            self._last_time = max(last, now)
        else:
            if len(self._dts) >= _SETTLE_EVERY:
                self._settle()
            dts = self._dts
            n = len(dts)
            # A core whose draw changed since the previous interval has
            # ended a segment: bill it at the draw it had.
            cores = self._cores
            seg_state = self._seg_state
            seg_level = self._seg_level
            for i in range(len(cores)) if marked is None else marked:
                c = cores[i]
                if c.state is not seg_state[i] or c.level != seg_level[i]:
                    self._close_segment(i, n)
            dts.append(dt)
            if self._spans is not None:
                self._spans.append((last, now))
            self._last_time = now
            if marked is None:
                self._marked = marked = []
            else:
                marked.clear()
        if core is None:
            self._marked = None
        elif marked is not None:
            marked.append(core)

    def _close_segment(self, i: int, end: int) -> None:
        """Bill core ``i``'s intervals before ``end``; its next segment
        starts at ``end`` with the core's current state and level."""
        start = self._seg_start[i]
        if start < end:
            state = self._seg_state[i]
            level = self._seg_level[i]
            if state in BUSY_STATES:
                watts = self._busy_by_core[i][level]
            else:
                watts = self._idle_by_core[i]
            self._accounts[i].bill(state, level, watts, self._dts[start:end])
            if self._spans is not None:
                series = self._power_series[i]
                for last, now in self._spans[start:end]:
                    # Merge with the previous piece when power is unchanged.
                    if series and series[-1][2] == watts and series[-1][1] == last:
                        series[-1] = (series[-1][0], now, watts)
                    else:
                        series.append((last, now, watts))
            self._seg_start[i] = end
        core = self._cores[i]
        self._seg_state[i] = core.state
        self._seg_level[i] = core.level

    def _settle(self) -> None:
        """Bill every recorded interval and clear the record."""
        dts = self._dts
        if dts:
            end = len(dts)
            for i in range(len(self._cores)):
                self._close_segment(i, end)
            dts.clear()
            if self._spans is not None:
                self._spans.clear()
            self._seg_start = [0] * len(self._cores)

    def finalize(self, now: float) -> None:
        """Bill the final interval and freeze the meter."""
        self.observe(now)
        self._settle()
        self._finalized = True

    def billed_through(self, now: float, *, final: bool = False) -> None:
        """Continue metering from ``now``; the accounts already hold it.

        Fast-forward replay adds whole batches to :attr:`accounts` itself;
        this settles the recorded intervals, moves the clock to ``now``
        without billing the gap, and with ``final`` freezes the meter.
        """
        if self._finalized:
            raise SimulationError("energy meter already finalized")
        if now < self._last_time:
            raise SimulationError(f"time went backwards: {self._last_time} -> {now}")
        self._settle()
        self._last_time = now
        self._finalized = final

    @property
    def accounts(self) -> list[CoreEnergyAccount]:
        """Per-core accounts, billed through the last observation."""
        self._settle()
        return self._accounts

    @property
    def power_series(self) -> list[list[tuple[float, float, float]]] | None:
        """Optional piecewise-constant power trace per core — lists of
        ``(t_start, t_end, watts)`` fed to the thermal analysis; ``None``
        unless the meter was built with ``record_series=True``."""
        self._settle()
        return self._power_series

    # -- results ------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Total metered time in seconds."""
        return self._last_time

    def core_joules(self) -> float:
        """Energy of the cores alone (without the machine baseline)."""
        return sum(a.joules for a in self.accounts)

    def baseline_joules(self) -> float:
        """Energy of the frequency-independent machine baseline."""
        return self._power.machine_base_power * self.elapsed

    def total_joules(self) -> float:
        """Whole-machine energy: what the paper's wall meter reports."""
        return self.core_joules() + self.baseline_joules()

    def spin_joules(self) -> float:
        """Energy burnt by cores spinning in the steal loop (pure waste)."""
        return sum(a.joules_by_state.get(CoreState.SPINNING, 0.0) for a in self.accounts)

    def running_joules(self) -> float:
        """Energy spent actually executing tasks."""
        return sum(a.joules_by_state.get(CoreState.RUNNING, 0.0) for a in self.accounts)

    def seconds_by_level(self) -> dict[int, float]:
        """Aggregate core-seconds spent at each frequency level."""
        totals: dict[int, float] = {}
        for account in self.accounts:
            for level, secs in account.seconds_by_level.items():
                totals[level] = totals.get(level, 0.0) + secs
        return totals
