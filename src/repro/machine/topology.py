"""Machine configuration and presets.

A :class:`MachineConfig` bundles everything the engine needs to know about
the hardware being simulated: core count, operating-point space, power
model, and the latency constants that make scheduling decisions cost
something. Heterogeneous (big.LITTLE-style) machines declare ``core_types``
— an ordered partition of the cores into named types, each with its own
ladder inside the machine's :class:`~repro.machine.operating_point.OperatingPointSpace`
— and optionally ``type_powers``, a per-type power model (per-type kappa,
voltage curve, idle draw). A machine without ``core_types`` is the
homogeneous special case: one implicit type owning every core.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigurationError
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import (
    OperatingPointSpace,
    homogeneous_space,
    space_from_ladders,
)
from repro.machine.power import PowerModel, VoltageCurve, calibrated_power_model


@dataclass(frozen=True)
class MachineConfig:
    """Static description of the simulated multicore machine.

    Parameters
    ----------
    num_cores:
        Number of cores ``m``.
    scale:
        The machine's operating-point space (a flat DVFS ladder on
        homogeneous machines; the merged per-type ladders on
        heterogeneous ones).
    power:
        Power model used by the energy meter — the whole-machine baseline
        always comes from here, and it is every core's model unless
        ``type_powers`` overrides per type.
    steal_cycles:
        Cycles charged to a core for one successful steal (victim scan +
        deque CAS). Converted to seconds at the thief's effective speed.
        A scan that finds nothing costs nothing (see
        :class:`~repro.runtime.policy.Wait`).
    pop_cycles:
        Cycles charged for a local pool pop (cheap, lock-free path).
    dvfs_latency_s:
        Seconds a core is stalled while switching P-states.
    dvfs_domains:
        Optional partition of core ids into shared-frequency domains
        (voltage planes). Within a domain the hardware runs every core at
        the *fastest* requested level — the semantics of per-socket DVFS,
        which is what the real Opteron 8380 actually had (the paper
        assumes per-core control; the per-socket preset is the ablation).
        ``None`` (default) means fully independent per-core DVFS. On
        heterogeneous machines a domain must not span core types (levels
        are type-local indices).
    core_types:
        Optional ordered ``((type_name, count), ...)`` partition of the
        cores. Core ids are assigned contiguously in declaration order
        (the first ``count`` ids to the first type, and so on). Required
        when ``scale`` holds more than one core type; on a one-type scale
        it may be given explicitly (the operating-point-parity conformance
        check does) and must then name exactly that type.
    type_powers:
        Optional ordered ``((type_name, PowerModel), ...)`` per-type power
        models. Types without an entry fall back to ``power``.
    """

    num_cores: int
    scale: OperatingPointSpace
    power: PowerModel
    steal_cycles: float = 6000.0
    pop_cycles: float = 400.0
    dvfs_latency_s: float = 100e-6
    dvfs_domains: Optional[tuple[tuple[int, ...], ...]] = None
    core_types: Optional[tuple[tuple[str, int], ...]] = None
    type_powers: Optional[tuple[tuple[str, PowerModel], ...]] = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("a machine needs at least one core")
        for name in ("steal_cycles", "pop_cycles", "dvfs_latency_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.core_types is None:
            if not self.scale.is_homogeneous:
                raise ConfigurationError(
                    "a machine whose operating-point space holds multiple "
                    f"core types {self.scale.types} must declare core_types"
                )
        else:
            names = tuple(name for name, _ in self.core_types)
            if names != self.scale.types:
                raise ConfigurationError(
                    f"core_types names {names} must match the scale's "
                    f"types {self.scale.types} in order"
                )
            if any(count < 1 for _, count in self.core_types):
                raise ConfigurationError(
                    "every core type needs at least one core"
                )
            total = sum(count for _, count in self.core_types)
            if total != self.num_cores:
                raise ConfigurationError(
                    f"core_types counts sum to {total}, expected "
                    f"{self.num_cores} cores"
                )
        if self.type_powers is not None:
            known = set(self.scale.types)
            for name, _ in self.type_powers:
                if name not in known:
                    raise ConfigurationError(
                        f"type_powers names unknown core type {name!r} "
                        f"(types: {self.scale.types})"
                    )
        # Per-core derived views, stored as non-field attributes so the
        # canonical dataclass encoding (cache keys, scenario digests)
        # hashes the declared fields alone.
        type_by_core: list[str] = []
        if self.core_types is None:
            type_by_core = [self.scale.types[0]] * self.num_cores
        else:
            for name, count in self.core_types:
                type_by_core.extend([name] * count)
        object.__setattr__(self, "_type_by_core", tuple(type_by_core))
        ladder_by_type = {t: self.scale.ladder(t) for t in self.scale.types}
        object.__setattr__(self, "_ladder_by_type", ladder_by_type)
        op_index_by_type = {
            t: tuple(
                self.scale.index_for(t, level)
                for level in range(ladder_by_type[t].r)
            )
            for t in self.scale.types
        }
        object.__setattr__(self, "_op_index_by_type", op_index_by_type)
        power_by_type = {t: self.power for t in self.scale.types}
        if self.type_powers is not None:
            power_by_type.update(dict(self.type_powers))
        object.__setattr__(self, "_power_by_type", power_by_type)
        if self.dvfs_domains is not None:
            seen = [c for dom in self.dvfs_domains for c in dom]
            if sorted(seen) != list(range(self.num_cores)):
                raise ConfigurationError(
                    "dvfs_domains must partition the core ids exactly"
                )
            if any(len(dom) == 0 for dom in self.dvfs_domains):
                raise ConfigurationError("dvfs_domains must be non-empty")
            for dom in self.dvfs_domains:
                types = {type_by_core[c] for c in dom}
                if len(types) > 1:
                    raise ConfigurationError(
                        f"dvfs domain {dom} spans core types {sorted(types)}; "
                        "shared frequency planes cannot mix core types"
                    )

    @property
    def r(self) -> int:
        """Number of operating points (frequency levels when homogeneous)."""
        return self.scale.r

    @property
    def is_heterogeneous(self) -> bool:
        """Whether the machine holds more than one core type."""
        return not self.scale.is_homogeneous

    # -- per-core views ----------------------------------------------------

    def core_type_of(self, core_id: int) -> str:
        """Core type name of ``core_id``."""
        return self._type_by_core[core_id]  # type: ignore[attr-defined]

    def ladder_of(self, core_id: int) -> OperatingPointSpace:
        """The (one-type) ladder ``core_id``'s DVFS levels index into.

        On homogeneous machines this is ``scale`` itself (object
        identity), so every core keeps sharing the machine's scale.
        """
        return self._ladder_by_type[self.core_type_of(core_id)]  # type: ignore[attr-defined]

    def ipc_of(self, core_id: int) -> float:
        """IPC-scaling factor of ``core_id``'s type (1.0 when homogeneous)."""
        return self.ladder_of(core_id).points[0].ipc_scale

    def power_of(self, core_type: str) -> PowerModel:
        """Power model billing cores of ``core_type``."""
        return self._power_by_type[core_type]  # type: ignore[attr-defined]

    def op_index_map_of(self, core_id: int) -> tuple[int, ...]:
        """Type-local level → global operating-point index, per core.

        The identity map on homogeneous machines; the engine uses it to
        build the per-batch operating-point histograms.
        """
        return self._op_index_by_type[self.core_type_of(core_id)]  # type: ignore[attr-defined]

    def capacities(self) -> tuple[tuple[str, int], ...]:
        """Core count per type, synthesising the one-type partition."""
        if self.core_types is not None:
            return self.core_types
        return ((self.scale.types[0], self.num_cores),)

    def with_cores(self, num_cores: int) -> "MachineConfig":
        """Copy of this config with a different core count (Fig. 9 sweeps).

        On heterogeneous machines the per-type counts scale proportionally
        (largest-remainder rounding, every type keeping at least one core).
        """
        if self.core_types is None:
            return replace(self, num_cores=num_cores)
        if num_cores < len(self.core_types):
            raise ConfigurationError(
                f"{num_cores} cores cannot cover {len(self.core_types)} "
                "core types"
            )
        shares = [
            (count * num_cores / self.num_cores, name)
            for name, count in self.core_types
        ]
        counts = {name: max(1, int(share)) for share, name in shares}
        remainders = sorted(
            ((share - int(share), -i, name) for i, (share, name) in enumerate(shares)),
            reverse=True,
        )
        idx = 0
        while sum(counts.values()) < num_cores:
            _, _, name = remainders[idx % len(remainders)]
            counts[name] += 1
            idx += 1
        while sum(counts.values()) > num_cores:
            biggest = max(counts, key=lambda n: (counts[n], n))
            if counts[biggest] <= 1:
                break
            counts[biggest] -= 1
        return replace(
            self,
            num_cores=num_cores,
            core_types=tuple((name, counts[name]) for name, _ in self.core_types),
        )


def opteron_8380_machine(
    num_cores: int = 16,
    *,
    power: Optional[PowerModel] = None,
    per_socket_dvfs: bool = False,
) -> MachineConfig:
    """The paper's testbed: four quad-core AMD Opteron 8380 processors.

    Sixteen cores, four P-states (2.5/1.8/1.3/0.8 GHz), whole-machine power
    model calibrated in :func:`repro.machine.power.calibrated_power_model`.

    ``per_socket_dvfs=True`` groups cores into quad-core shared-frequency
    domains — the physical Opteron 8380's actual DVFS granularity — for
    the hardware-granularity ablation.
    """
    scale = opteron_8380_scale()
    if power is None:
        power = calibrated_power_model(scale)
    domains = None
    if per_socket_dvfs:
        if num_cores % 4:
            raise ConfigurationError("per-socket preset needs a multiple of 4 cores")
        domains = tuple(
            tuple(range(s, s + 4)) for s in range(0, num_cores, 4)
        )
    return MachineConfig(
        num_cores=num_cores, scale=scale, power=power, dvfs_domains=domains
    )


def dyadic_test_machine(num_cores: int = 8, r: int = 4) -> MachineConfig:
    """A machine on which every engine computation is float-exact.

    Frequencies are powers of two (halving from ``2^31`` Hz), the voltage
    curve is flat at 1.0, ``kappa`` and every latency constant are dyadic
    rationals, and cycle counts divide the frequencies exactly — so task
    durations, overheads, and per-interval energies are all dyadic and
    every ``+`` in the engine is exact (no rounding anywhere). On this
    machine a converged steady state has *bit-constant* per-batch deltas
    forever, which is what makes the steady-state fast-forward's arithmetic
    replay provably bit-identical to full simulation. The fast-forward
    tests, conformance parity check, and 100-batch benchmarks all run here.
    """
    if r < 1:
        raise ConfigurationError("need at least one frequency level")
    scale = homogeneous_space(tuple(2.0 ** (31 - i) for i in range(r)))
    curve = VoltageCurve(f_min=scale.slowest, f_max=scale.fastest, v_min=1.0, v_max=1.0)
    power = PowerModel(
        voltage_curve=curve,
        kappa=2.0**-28,
        core_idle_power=1.0,
        machine_base_power=2.0,
    )
    return MachineConfig(
        num_cores=num_cores,
        scale=scale,
        power=power,
        steal_cycles=8192.0,
        pop_cycles=512.0,
        dvfs_latency_s=2.0**-13,
    )


def big_little_test_machine(
    big_cores: int = 4, little_cores: int = 4
) -> MachineConfig:
    """A dyadic 4+4 big.LITTLE machine: the heterogeneous test preset.

    Two core types sharing part of their electrical frequency range:

    * ``big`` — four P-states halving from ``2^31`` Hz, ``ipc_scale`` 1.0,
      ``kappa = 2^-28``, 1.0 W idle;
    * ``little`` — four P-states halving from ``2^30`` Hz, ``ipc_scale``
      0.5 (half the reference IPC), ``kappa = 2^-30``, 0.25 W idle.

    The merged operating-point space interleaves the ladders by effective
    speed and contains *cross-type effective-speed ties* (big at ``2^29``
    electrical ≡ little at ``2^30`` electrical) and *shared electrical
    frequencies with different wattages* — the case the energy meter's
    per-operating-point billing exists for. All constants are dyadic, so
    the steady-state fast-forward stays bit-exact here too.
    """
    big_freqs = tuple(2.0 ** (31 - i) for i in range(4))
    little_freqs = tuple(2.0 ** (30 - i) for i in range(4))
    scale = space_from_ladders(
        [("big", big_freqs, 1.0), ("little", little_freqs, 0.5)]
    )
    big_power = PowerModel(
        voltage_curve=VoltageCurve(
            f_min=big_freqs[-1], f_max=big_freqs[0], v_min=1.0, v_max=1.0
        ),
        kappa=2.0**-28,
        core_idle_power=1.0,
        machine_base_power=2.0,
    )
    little_power = PowerModel(
        voltage_curve=VoltageCurve(
            f_min=little_freqs[-1], f_max=little_freqs[0], v_min=1.0, v_max=1.0
        ),
        kappa=2.0**-30,
        core_idle_power=0.25,
        machine_base_power=0.0,
    )
    return MachineConfig(
        num_cores=big_cores + little_cores,
        scale=scale,
        power=big_power,
        steal_cycles=8192.0,
        pop_cycles=512.0,
        dvfs_latency_s=2.0**-13,
        core_types=(("big", big_cores), ("little", little_cores)),
        type_powers=(("big", big_power), ("little", little_power)),
    )


def small_test_machine(
    num_cores: int = 2, levels: tuple[float, ...] = (2.0e9, 1.0e9)
) -> MachineConfig:
    """A tiny machine for unit tests and the Fig. 1 micro-experiment."""
    scale = homogeneous_space(levels)
    power = calibrated_power_model(
        scale, top_core_busy_watts=10.0, core_idle_watts=1.0, machine_base_watts=0.0
    )
    return MachineConfig(num_cores=num_cores, scale=scale, power=power)
