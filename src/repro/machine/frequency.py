"""Frequency ladders for DVFS-capable cores.

The paper assumes each core can run at ``r`` discrete frequencies
``F_0 > F_1 > ... > F_{r-1}`` (Section III). That ordered set is a
one-type :class:`~repro.machine.operating_point.OperatingPointSpace`,
built from a flat ladder by
:func:`~repro.machine.operating_point.homogeneous_space`; this module
holds the ladder presets.

Frequencies are stored in hertz as floats. The evaluation platform of the
paper (AMD Opteron 8380) exposes 2.5, 1.8, 1.3 and 0.8 GHz; see
:func:`opteron_8380_scale`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.machine.operating_point import OperatingPointSpace, homogeneous_space

GHZ = 1e9
"""Multiplier converting GHz to Hz."""


def opteron_8380_scale() -> OperatingPointSpace:
    """The frequency ladder of the paper's AMD Opteron 8380 testbed.

    Section IV: "each core can run at four frequencies: 2.5GHz, 1.8GHz,
    1.3GHz and 0.8GHz".
    """
    return homogeneous_space((2.5 * GHZ, 1.8 * GHZ, 1.3 * GHZ, 0.8 * GHZ))


def uniform_scale(
    fastest_ghz: float, steps: int, *, ratio: float = 0.75
) -> OperatingPointSpace:
    """A geometric frequency ladder, convenient for synthetic machines."""
    if steps < 1:
        raise ConfigurationError("steps must be >= 1")
    if not 0.0 < ratio < 1.0:
        raise ConfigurationError("ratio must be in (0, 1)")
    return homogeneous_space(
        tuple(fastest_ghz * GHZ * ratio**i for i in range(steps))
    )
