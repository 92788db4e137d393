"""Analytic power model for the simulated machine.

The paper measures whole-machine energy with a wall power meter. We replace
the meter with the standard first-order CMOS model the paper's own reasoning
relies on (Section II assumes power ``p_0 > p_1`` when frequency is scaled
down):

``P_core(f) = P_core_idle + kappa * V(f)^2 * f``   while the core is doing
work (running a task *or* spin-stealing — an idle Cilk worker burns full
power, which is exactly the waste EEWA attacks), and ``P_core_idle`` when the
core is parked between batches. The machine adds a constant baseline
``P_base`` (fans, DRAM, chipset, PSU loss) so that relative whole-machine
savings land in a realistic band rather than being exaggerated.

Voltage scales affinely with frequency between ``(f_min, v_min)`` and
``(f_max, v_max)`` — the shape of every published Opteron P-state table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine.operating_point import OperatingPointSpace


@dataclass(frozen=True)
class VoltageCurve:
    """Affine voltage/frequency relation ``V(f)``.

    Parameters
    ----------
    f_min, f_max:
        Frequency endpoints in hertz (``f_min < f_max``).
    v_min, v_max:
        Supply voltage at the endpoints, in volts.
    """

    f_min: float
    f_max: float
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if self.f_min >= self.f_max:
            raise ConfigurationError("VoltageCurve requires f_min < f_max")
        if self.v_min <= 0 or self.v_max <= 0:
            raise ConfigurationError("voltages must be positive")
        if self.v_min > self.v_max:
            raise ConfigurationError("VoltageCurve requires v_min <= v_max")

    def voltage(self, frequency: float) -> float:
        """Supply voltage at ``frequency``, clamped to the curve endpoints."""
        if frequency <= self.f_min:
            return self.v_min
        if frequency >= self.f_max:
            return self.v_max
        span = (frequency - self.f_min) / (self.f_max - self.f_min)
        return self.v_min + span * (self.v_max - self.v_min)


@dataclass(frozen=True)
class PowerModel:
    """Per-core and machine-level power as a function of frequency and state.

    Parameters
    ----------
    voltage_curve:
        The ``V(f)`` relation.
    kappa:
        Effective switched capacitance times activity factor, in
        ``W / (V^2 * Hz)``. Calibrated so a core at the top frequency draws
        ``busy_power(F_0) - core_idle_power`` watts of dynamic power.
    core_idle_power:
        Static/leakage power of a parked core, in watts.
    machine_base_power:
        Constant whole-machine baseline in watts (measured by the paper's
        wall meter but invisible to the scheduler).
    """

    voltage_curve: VoltageCurve
    kappa: float
    core_idle_power: float
    machine_base_power: float

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ConfigurationError("kappa must be positive")
        if self.core_idle_power < 0 or self.machine_base_power < 0:
            raise ConfigurationError("powers must be non-negative")

    def dynamic_power(self, frequency: float) -> float:
        """Dynamic (switching) power of one busy core at ``frequency``."""
        v = self.voltage_curve.voltage(frequency)
        return self.kappa * v * v * frequency

    def busy_power(self, frequency: float) -> float:
        """Total power of one core executing or spin-stealing at ``frequency``."""
        return self.core_idle_power + self.dynamic_power(frequency)

    def idle_power(self) -> float:
        """Power of one parked core (between batches / halted)."""
        return self.core_idle_power

    def machine_power(self, busy_frequencies: list[float], idle_cores: int) -> float:
        """Instantaneous whole-machine power for a given core population."""
        total = self.machine_base_power + idle_cores * self.core_idle_power
        for f in busy_frequencies:
            total += self.busy_power(f)
        return total


def calibrated_power_model(
    scale: OperatingPointSpace,
    *,
    top_core_busy_watts: float = 18.75,
    core_idle_watts: float = 2.0,
    machine_base_watts: float = 180.0,
    v_min: float = 1.0,
    v_max: float = 1.3,
) -> PowerModel:
    """Build a :class:`PowerModel` calibrated against a frequency scale.

    Defaults approximate the paper's 4-socket Opteron 8380 server: each
    quad-core Opteron 8380 is a 75 W part (~18.75 W/core busy at 2.5 GHz),
    and a loaded 4-socket server of that era drew on the order of 450-500 W
    at the wall, of which roughly 180 W is core-independent baseline.
    """
    curve = VoltageCurve(
        f_min=scale.slowest, f_max=scale.fastest, v_min=v_min, v_max=v_max
    )
    dynamic_top = top_core_busy_watts - core_idle_watts
    if dynamic_top <= 0:
        raise ConfigurationError("top_core_busy_watts must exceed core_idle_watts")
    v_top = curve.voltage(scale.fastest)
    kappa = dynamic_top / (v_top * v_top * scale.fastest)
    return PowerModel(
        voltage_curve=curve,
        kappa=kappa,
        core_idle_power=core_idle_watts,
        machine_base_power=machine_base_watts,
    )
