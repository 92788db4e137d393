"""Plugin registries for policies, machine presets, and workloads.

Everything the paper evaluates is a point in (machine × workload × policy
× seeds) space. These registries make each axis *data*: an entry carries a
builder plus the metadata the CLI, the conformance harness, and the race
battery need (``needs_core_levels``, Table II membership, ...), so none of
them has to hard-code name tuples or ``if``-chains.

Registering a new policy::

    from repro.scenario.registry import register_policy

    @register_policy("my-policy", description="...")
    def _build_my_policy(*, core_levels=None, params=None, config=None):
        return MyPolicy()

after which ``repro run <bench> my-policy``, ``ScenarioSpec`` JSON files,
the result cache, and ``repro.runtime.conformance.main`` all pick it up.
Each entry has exactly one name, unique within its registry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Generic, Iterator, Mapping, Optional, Sequence, TypeVar

from repro.errors import ScenarioError
from repro.machine.topology import (
    MachineConfig,
    big_little_test_machine,
    opteron_8380_machine,
    small_test_machine,
)
from repro.runtime.policy import SchedulerPolicy
from repro.workloads.spec import WorkloadSpec

E = TypeVar("E")


class Registry(Generic[E]):
    """Name → entry mapping with duplicate rejection."""

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: dict[str, E] = {}

    def register(self, entry: E) -> E:
        name = entry.name  # type: ignore[attr-defined]
        if name in self._entries:
            raise ScenarioError(f"duplicate {self._kind} name {name!r}")
        self._entries[name] = entry
        return entry

    def canonical(self, name: str) -> str:
        """Return ``name`` if it is registered; raise a
        :class:`ScenarioError` listing the registered names if not."""
        if name in self._entries:
            return name
        raise ScenarioError(
            f"unknown {self._kind} {name!r}; registered: {', '.join(self.names())}"
        )

    def get(self, name: str) -> E:
        return self._entries[self.canonical(name)]

    def names(self) -> tuple[str, ...]:
        """Canonical names, in registration order."""
        return tuple(self._entries)

    def entries(self) -> tuple[E, ...]:
        return tuple(self._entries.values())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[E]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# entries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyEntry:
    """One registered scheduler policy.

    ``builder`` is called as ``builder(core_levels=..., params=...,
    config=...)`` and must reject inputs the policy cannot honour (e.g.
    fixed levels for a policy that controls DVFS itself).
    """

    name: str
    builder: Callable[..., SchedulerPolicy]
    description: str = ""
    #: Policy cannot run without a fixed per-core level vector (WATS).
    needs_core_levels: bool = False
    #: Policy optionally accepts a fixed level vector (Cilk on an
    #: asymmetric machine).
    accepts_core_levels: bool = False
    #: Member of the default Cilk-normalised comparison set (Fig. 6/9,
    #: ``repro compare``).
    compare_baseline: bool = False
    #: Whether the conformance nested-spawn check applies.
    supports_spawns: bool = True

    def build(
        self,
        *,
        core_levels: Optional[Sequence[int]] = None,
        params: Optional[Mapping[str, Any]] = None,
        config: Any = None,
    ) -> SchedulerPolicy:
        if core_levels is not None and not (
            self.needs_core_levels or self.accepts_core_levels
        ):
            raise ScenarioError(f"{self.name} does not take fixed core levels")
        if self.needs_core_levels and core_levels is None:
            raise ScenarioError(f"{self.name} requires fixed core_levels")
        return self.builder(core_levels=core_levels, params=params, config=config)


@dataclass(frozen=True)
class MachinePresetEntry:
    """One registered machine preset; ``builder(num_cores)`` → config.

    Presets with ``supports_core_types=True`` additionally accept an
    explicit ``((type_name, count), ...)`` partition (scenario schema v3's
    ``core_types`` axis) as ``builder(num_cores, core_types=...)``.
    """

    name: str
    builder: Callable[..., MachineConfig]
    description: str = ""
    default_cores: int = 16
    #: Preset builds a heterogeneous machine and takes a core_types
    #: partition (the scenario schema v3 axis).
    supports_core_types: bool = False

    def build(
        self,
        num_cores: Optional[int] = None,
        core_types: Optional[Sequence[tuple[str, int]]] = None,
    ) -> MachineConfig:
        if core_types is not None:
            if not self.supports_core_types:
                raise ScenarioError(
                    f"machine preset {self.name!r} does not take a "
                    "core_types partition"
                )
            return self.builder(num_cores, core_types=tuple(core_types))
        return self.builder(num_cores)


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload; ``spec()`` → its WorkloadSpec.

    ``spec_factory`` runs on the first ``spec()`` only. A WorkloadSpec is
    immutable, so every caller shares that one, and keying a cell by its
    workload does not rebuild the spec each time.
    """

    name: str
    spec_factory: Callable[[], WorkloadSpec]
    description: str = ""
    #: True for the paper's Table II benchmarks.
    table2: bool = False

    @functools.cached_property
    def _spec(self) -> WorkloadSpec:
        return self.spec_factory()

    def spec(self) -> WorkloadSpec:
        return self._spec


POLICIES: Registry[PolicyEntry] = Registry("policy")
MACHINES: Registry[MachinePresetEntry] = Registry("machine preset")
WORKLOADS: Registry[WorkloadEntry] = Registry("workload")


# ----------------------------------------------------------------------
# decorator registration
# ----------------------------------------------------------------------


def register_policy(
    name: str,
    *,
    description: str = "",
    needs_core_levels: bool = False,
    accepts_core_levels: bool = False,
    compare_baseline: bool = False,
    supports_spawns: bool = True,
) -> Callable[[Callable[..., SchedulerPolicy]], Callable[..., SchedulerPolicy]]:
    def decorate(builder: Callable[..., SchedulerPolicy]):
        POLICIES.register(
            PolicyEntry(
                name=name,
                builder=builder,
                description=description,
                needs_core_levels=needs_core_levels,
                accepts_core_levels=accepts_core_levels,
                compare_baseline=compare_baseline,
                supports_spawns=supports_spawns,
            )
        )
        return builder

    return decorate


def register_machine(
    name: str,
    *,
    description: str = "",
    default_cores: int = 16,
    supports_core_types: bool = False,
) -> Callable[[Callable[..., MachineConfig]], Callable[..., MachineConfig]]:
    def decorate(builder: Callable[..., MachineConfig]):
        MACHINES.register(
            MachinePresetEntry(
                name=name,
                builder=builder,
                description=description,
                default_cores=default_cores,
                supports_core_types=supports_core_types,
            )
        )
        return builder

    return decorate


def register_workload(
    name: str,
    *,
    description: str = "",
    table2: bool = False,
) -> Callable[[Callable[[], WorkloadSpec]], Callable[[], WorkloadSpec]]:
    def decorate(spec_factory: Callable[[], WorkloadSpec]):
        WORKLOADS.register(
            WorkloadEntry(
                name=name,
                spec_factory=spec_factory,
                description=description,
                table2=table2,
            )
        )
        return spec_factory

    return decorate


# ----------------------------------------------------------------------
# convenience views
# ----------------------------------------------------------------------


def baseline_policy_names() -> tuple[str, ...]:
    """The default Cilk-normalised comparison set, in registration order."""
    return tuple(e.name for e in POLICIES if e.compare_baseline)


def spread_levels(num_cores: int, r: int) -> list[int]:
    """Ascending level vector spreading ``num_cores`` over ``r`` levels.

    The default fixed configuration harnesses use when a
    ``needs_core_levels`` policy must run without a caller-chosen vector
    (conformance battery, race battery): e.g. 4 cores × 3 levels →
    ``[0, 0, 1, 2]``.
    """
    if num_cores < 1 or r < 1:
        raise ScenarioError("spread_levels needs num_cores >= 1 and r >= 1")
    return [min(i * r // num_cores, r - 1) for i in range(num_cores)]


def spread_levels_for(machine: MachineConfig) -> list[int]:
    """Per-core spread vector valid on ``machine``'s per-core ladders.

    On homogeneous machines this is exactly
    ``spread_levels(machine.num_cores, machine.r)``. On heterogeneous
    machines the spread is applied *within each core type* over that
    type's own ladder — entries are type-local DVFS levels, so every
    entry is valid for the core it configures (the 4+4 big.LITTLE test
    machine gets ``[0, 1, 2, 3, 0, 1, 2, 3]``).
    """
    levels: list[int] = []
    for name, count in machine.capacities():
        levels.extend(spread_levels(count, machine.scale.ladder(name).r))
    return levels


# ----------------------------------------------------------------------
# shipped policies
# ----------------------------------------------------------------------


def _reject(name: str, *, params=None, config=None, allowed: str = "") -> None:
    if params:
        extra = f" (supported: {allowed})" if allowed else ""
        raise ScenarioError(f"{name} does not take params {sorted(params)}{extra}")
    if config is not None:
        raise ScenarioError(f"{name} does not take a config object")


def _pop_params(name: str, params: Optional[Mapping[str, Any]], allowed: Sequence[str]) -> dict:
    taken = dict(params or {})
    unknown = set(taken) - set(allowed)
    if unknown:
        raise ScenarioError(
            f"{name}: unknown params {sorted(unknown)}; supported: {sorted(allowed)}"
        )
    return taken


@register_policy(
    "cilk",
    description="classic Cilk randomized work stealing, all cores at F0 "
    "(or at a fixed asymmetric level vector)",
    accepts_core_levels=True,
    compare_baseline=True,
)
def _build_cilk(*, core_levels=None, params=None, config=None) -> SchedulerPolicy:
    from repro.runtime.cilk import CilkScheduler

    _reject("cilk", params=params, config=config)
    return CilkScheduler(core_levels=core_levels)


@register_policy(
    "cilk-d",
    description="Cilk with per-core DVFS idling: spinning cores drop to the "
    "lowest frequency after a grace period",
    compare_baseline=True,
)
def _build_cilk_d(*, core_levels=None, params=None, config=None) -> SchedulerPolicy:
    from repro.runtime.cilk_d import CilkDScheduler

    _reject("cilk-d", config=config)
    kwargs = _pop_params("cilk-d", params, ("idle_grace_s",))
    return CilkDScheduler(**kwargs)


@register_policy(
    "wats",
    description="workload-aware task scheduling on a fixed asymmetric "
    "configuration (rob-the-weaker-first stealing, no DVFS control)",
    needs_core_levels=True,
)
def _build_wats(*, core_levels=None, params=None, config=None) -> SchedulerPolicy:
    from repro.runtime.wats import WATSScheduler

    _reject("wats", params=params, config=config)
    return WATSScheduler(core_levels)


def eewa_config_from_params(params: Mapping[str, Any]):
    """Build an :class:`~repro.core.eewa.EEWAConfig` from JSON-scalar params.

    Supports every scalar tunable; ``memory_bound_mode`` is given by its
    lower-case enum name (``"fallback"`` / ``"regression"``).
    """
    from repro.core.eewa import EEWAConfig
    from repro.core.membound import MemoryBoundMode

    allowed = (
        "search", "cc_mode", "headroom", "leftover_policy",
        "miss_threshold", "memory_bound_mode", "adapt_every_batch",
        "max_dvfs_retries", "dvfs_backoff_batches", "max_search_failures",
    )
    kwargs = _pop_params("eewa", params, allowed)
    for name in ("max_dvfs_retries", "dvfs_backoff_batches", "max_search_failures"):
        if name in kwargs:
            kwargs[name] = int(kwargs[name])
    if "memory_bound_mode" in kwargs:
        raw = kwargs["memory_bound_mode"]
        try:
            kwargs["memory_bound_mode"] = MemoryBoundMode[str(raw).upper()]
        except KeyError:
            raise ScenarioError(
                f"eewa: unknown memory_bound_mode {raw!r}; expected one of "
                f"{sorted(m.name.lower() for m in MemoryBoundMode)}"
            ) from None
    return EEWAConfig(**kwargs)


@register_policy(
    "eewa",
    description="the paper's energy-efficient workload-aware scheduler: "
    "per-batch profiling, CC table, k-tuple DVFS search, c-group stealing",
    compare_baseline=True,
)
def _build_eewa(*, core_levels=None, params=None, config=None) -> SchedulerPolicy:
    from repro.core.eewa import EEWAConfig, EEWAScheduler

    if config is not None and params:
        raise ScenarioError("eewa: give either params or a config object, not both")
    if config is not None:
        if not isinstance(config, EEWAConfig):
            raise ScenarioError(
                f"eewa config must be an EEWAConfig, got {type(config).__name__}"
            )
        return EEWAScheduler(config)
    if params:
        return EEWAScheduler(eewa_config_from_params(params))
    return EEWAScheduler()


# ----------------------------------------------------------------------
# shipped machine presets
# ----------------------------------------------------------------------


@register_machine(
    "opteron-8380",
    description="the paper's testbed: 16 cores, four P-states "
    "(2.5/1.8/1.3/0.8 GHz), per-core DVFS",
    default_cores=16,
)
def _preset_opteron(num_cores: Optional[int]) -> MachineConfig:
    return opteron_8380_machine(num_cores=16 if num_cores is None else num_cores)


@register_machine(
    "opteron-8380-socket",
    description="the physical Opteron 8380: quad-core shared-frequency "
    "voltage planes (per-socket DVFS ablation)",
    default_cores=16,
)
def _preset_opteron_socket(num_cores: Optional[int]) -> MachineConfig:
    return opteron_8380_machine(
        num_cores=16 if num_cores is None else num_cores, per_socket_dvfs=True
    )


@register_machine(
    "big-little-test",
    description="dyadic 4+4 big.LITTLE machine: two core types with "
    "overlapping frequency ranges merged into one operating-point space",
    default_cores=8,
    supports_core_types=True,
)
def _preset_big_little(
    num_cores: Optional[int],
    core_types: Optional[Sequence[tuple[str, int]]] = None,
) -> MachineConfig:
    if core_types is not None:
        counts = dict(core_types)
        unknown = sorted(set(counts) - {"big", "little"})
        if unknown:
            raise ScenarioError(
                f"big-little-test: unknown core types {unknown}; "
                "this preset has 'big' and 'little'"
            )
        machine = big_little_test_machine(
            big_cores=counts.get("big", 0), little_cores=counts.get("little", 0)
        )
        if num_cores is not None and num_cores != machine.num_cores:
            raise ScenarioError(
                f"big-little-test: cores={num_cores} contradicts the "
                f"core_types partition summing to {machine.num_cores}"
            )
        return machine
    machine = big_little_test_machine()
    if num_cores is not None and num_cores != machine.num_cores:
        machine = machine.with_cores(num_cores)
    return machine


@register_machine(
    "small-test",
    description="tiny 3-level machine used by the conformance and race "
    "batteries and unit tests",
    default_cores=4,
)
def _preset_small_test(num_cores: Optional[int]) -> MachineConfig:
    return small_test_machine(
        num_cores=4 if num_cores is None else num_cores,
        levels=(2.0e9, 1.5e9, 1.0e9),
    )


# ----------------------------------------------------------------------
# shipped workloads (Table II + the two extension workloads)
# ----------------------------------------------------------------------


def _register_shipped_workloads() -> None:
    from repro.workloads import benchmarks, periodic, synthetic

    table2 = {
        "BWC": benchmarks.bwc_spec,
        "Bzip-2": benchmarks.bzip2_spec,
        "DMC": benchmarks.dmc_spec,
        "JE": benchmarks.je_spec,
        "LZW": benchmarks.lzw_spec,
        "MD5": benchmarks.md5_spec,
        "SHA-1": benchmarks.sha1_spec,
    }
    for name, factory in table2.items():
        WORKLOADS.register(
            WorkloadEntry(
                name=name,
                spec_factory=factory,
                description=factory().description,
                table2=True,
            )
        )
    WORKLOADS.register(
        WorkloadEntry(
            name="STREAM-like",
            spec_factory=benchmarks.memory_bound_spec,
            description="memory-bound extension workload (Section IV-D)",
        )
    )
    WORKLOADS.register(
        WorkloadEntry(
            name="DMC-phased",
            spec_factory=synthetic.phased_spec,
            description="batch-to-batch varying workload (Fig. 7 discussion)",
        )
    )
    WORKLOADS.register(
        WorkloadEntry(
            name="periodic",
            spec_factory=periodic.periodic_workload_spec,
            description=periodic.periodic_workload_spec().description,
        )
    )


_register_shipped_workloads()


def workload_names(*, table2_only: bool = False) -> tuple[str, ...]:
    """Registered workload names (optionally Table II only), in order."""
    return tuple(e.name for e in WORKLOADS if e.table2 or not table2_only)


__all__ = [
    "MACHINES",
    "MachinePresetEntry",
    "POLICIES",
    "PolicyEntry",
    "Registry",
    "WORKLOADS",
    "WorkloadEntry",
    "baseline_policy_names",
    "eewa_config_from_params",
    "register_machine",
    "register_policy",
    "register_workload",
    "spread_levels",
    "spread_levels_for",
    "workload_names",
]
