"""Simulated machine substrate: operating points, power, cores, energy.

This package replaces the paper's physical testbed (four quad-core AMD
Opteron 8380 processors with per-core DVFS, measured at the wall with a
power meter) with an analytically-modelled machine that exposes exactly the
knobs the EEWA scheduler manipulates: per-core discrete operating points
(a flat frequency ladder on homogeneous machines, per-type ladders on
big.LITTLE-style ones), power that rises superlinearly with frequency, and
energy metering over time.
"""

from repro.machine.counters import PerfCounters, ZERO_MISS_COUNTERS
from repro.machine.core import BUSY_STATES, CoreState, SimCore
from repro.machine.energy import CoreEnergyAccount, EnergyMeter
from repro.machine.frequency import (
    GHZ,
    opteron_8380_scale,
    uniform_scale,
)
from repro.machine.operating_point import (
    DEFAULT_CORE_TYPE,
    OperatingPoint,
    OperatingPointSpace,
    homogeneous_space,
    space_from_ladders,
)
from repro.machine.power import PowerModel, VoltageCurve, calibrated_power_model
from repro.machine.topology import (
    MachineConfig,
    big_little_test_machine,
    opteron_8380_machine,
    small_test_machine,
)

__all__ = [
    "BUSY_STATES",
    "CoreEnergyAccount",
    "CoreState",
    "DEFAULT_CORE_TYPE",
    "EnergyMeter",
    "GHZ",
    "MachineConfig",
    "OperatingPoint",
    "OperatingPointSpace",
    "PerfCounters",
    "PowerModel",
    "SimCore",
    "VoltageCurve",
    "ZERO_MISS_COUNTERS",
    "big_little_test_machine",
    "calibrated_power_model",
    "homogeneous_space",
    "opteron_8380_machine",
    "opteron_8380_scale",
    "small_test_machine",
    "space_from_ladders",
    "uniform_scale",
]
