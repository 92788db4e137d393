"""Typed scenario specifications.

A :class:`ScenarioSpec` is the first-class representation of one point in
the paper's evaluation space: *(machine × workload × policy × seeds)*.
Every entry point — the CLI, the figure modules, the parallel cached
runner, the checks — consumes these specs instead of re-wiring machines,
seeds, and policy construction by hand.

Specs are frozen and JSON-round-trippable (with schema versioning and
unknown-field rejection). The result cache keys each of a spec's cells
by its ``cell_key`` (in the experiments layer), over the *resolved*
machine, workload, and policy content.

JSON form (``repro run-spec scenario.json``)::

    {
      "schema": 3,
      "workload": "SHA-1",                 // registry name, or an inline
                                           // workload object with "classes"
      "policy": {"name": "eewa", "params": {"headroom": 0.2}},
      "machine": {"preset": "opteron-8380", "num_cores": 16},
      "seeds": [11, 23, 37],
      "batches": 10,
      "faults": {"dvfs_deny_rate": 0.3}    // optional fault injection
    }

Heterogeneous machines pin the per-type core partition with the schema-v3
``core_types`` axis (preset must support it)::

    "machine": {"preset": "big-little-test",
                "core_types": [["big", 4], ["little", 4]]}
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.errors import ReproError, ScenarioError
from repro.faults.spec import FaultSpec
from repro.machine.topology import MachineConfig
from repro.scenario.registry import MACHINES, POLICIES, WORKLOADS, MachinePresetEntry
from repro.workloads.io import spec_from_dict, spec_to_dict
from repro.workloads.spec import WorkloadSpec

#: Version of the scenario JSON schema, part of every cell key. Bump on
#: any change to the spec fields or their canonical encoding: the bump
#: invalidates every result-cache entry written under the old layout.
#: v2 added the optional ``faults`` axis. v3 added the machine
#: ``core_types`` axis, and the machine canonical encoding changed
#: underneath it (operating-point spaces replaced flat frequency ladders).
SCENARIO_SCHEMA_VERSION = 3

#: Schema versions :meth:`ScenarioSpec.from_dict` accepts. v1/v2 documents
#: are strict subsets of v3 (no ``faults``/``core_types`` keys), so all
#: three read cleanly.
_READABLE_SCHEMAS = frozenset({1, 2, SCENARIO_SCHEMA_VERSION})

#: Seeds used when a scenario does not pin its own (the simulated stand-in
#: for the paper's 100 repeated hardware runs).
DEFAULT_SEEDS = (11, 23, 37)

#: Most cores a :class:`MachineSpec` may ask for, as ``num_cores`` or as
#: the total of its ``core_types``: 64 times the paper's 16-core machine.
#: Building and simulating a machine costs time and memory in proportion
#: to its core count (a one-batch SHA-1 cell on 100,000 cores took 3.3 s
#: and raised peak RSS from 35 to 299 MB on a 2-CPU Xeon VM), so one
#: scenario could otherwise exhaust ``repro serve``.
MAX_CORES = 1024

#: Preset machines :func:`_preset_machine` keeps, least recently used
#: dropped first.
_PRESET_MACHINES_KEPT = 64

_preset_machines: OrderedDict[
    tuple[str, Optional[int], Optional[tuple[tuple[str, int], ...]]],
    tuple[MachinePresetEntry, MachineConfig],
] = OrderedDict()
_preset_lock = threading.Lock()


def _preset_machine(
    preset: str,
    num_cores: Optional[int],
    core_types: Optional[tuple[tuple[str, int], ...]],
) -> MachineConfig:
    """The one machine the registered ``preset`` builds with these overrides.

    A machine is immutable, so every scenario, cell and engine can share
    it; the cell key digests a machine once per object, so sharing also
    makes that digest a memo hit. Each machine is held with the registry
    entry that built it: once the name is registered again, with a new
    entry, its machines are never served again and are dropped.
    """
    entry = MACHINES.get(preset)
    key = (preset, num_cores, core_types)
    with _preset_lock:
        held = _preset_machines.get(key)
        if held is not None and held[0] is entry:
            _preset_machines.move_to_end(key)
            return held[1]
        machine = entry.build(num_cores, core_types)
        for stale in [
            k for k, (built_by, _) in _preset_machines.items()
            if k[0] == preset and built_by is not entry
        ]:
            del _preset_machines[stale]
        _preset_machines[key] = (entry, machine)
        if len(_preset_machines) > _PRESET_MACHINES_KEPT:
            _preset_machines.popitem(last=False)
        return machine


@dataclass(frozen=True)
class MachineSpec:
    """Machine axis: a registered preset name plus overrides.

    A machine that does not ship with the package is registered first
    (:func:`~repro.scenario.registry.register_machine`) and then named
    here. A spec asks for at most :data:`MAX_CORES` cores.
    """

    preset: str = "opteron-8380"
    num_cores: Optional[int] = None
    #: Schema-v3 axis: ordered per-type core counts for heterogeneous
    #: presets (``supports_core_types``), e.g. ``(("big", 2), ("little", 6))``.
    core_types: Optional[tuple[tuple[str, int], ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "preset", MACHINES.canonical(self.preset))
        if self.num_cores is not None and not 1 <= self.num_cores <= MAX_CORES:
            raise ScenarioError(f"num_cores must lie between 1 and {MAX_CORES}")
        if self.core_types is not None:
            normalised = tuple(
                (str(name), int(count)) for name, count in self.core_types
            )
            if not normalised:
                raise ScenarioError("core_types must be non-empty when given")
            if any(count < 1 for _, count in normalised):
                raise ScenarioError("core_types counts must be >= 1")
            total = sum(count for _, count in normalised)
            if total > MAX_CORES:
                raise ScenarioError(
                    f"core_types ask for {total} cores; the limit is {MAX_CORES}"
                )
            object.__setattr__(self, "core_types", normalised)

    def build(self) -> MachineConfig:
        """The machine; a preset's is built once and shared (see
        :func:`_preset_machine`)."""
        return _preset_machine(self.preset, self.num_cores, self.core_types)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"preset": self.preset}
        if self.num_cores is not None:
            data["num_cores"] = self.num_cores
        if self.core_types is not None:
            data["core_types"] = [[name, count] for name, count in self.core_types]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineSpec":
        if not isinstance(data, Mapping):
            raise ScenarioError("machine must be a JSON object")
        unknown = set(data) - {"preset", "num_cores", "core_types"}
        if unknown:
            raise ScenarioError(f"unknown machine fields: {sorted(unknown)}")
        num_cores = data.get("num_cores")
        raw_types = data.get("core_types")
        core_types: Optional[tuple[tuple[str, int], ...]] = None
        if raw_types is not None:
            if isinstance(raw_types, (str, bytes)) or not isinstance(
                raw_types, Sequence
            ):
                raise ScenarioError(
                    "core_types must be a list of [type_name, count] pairs"
                )
            try:
                core_types = tuple(
                    (str(name), int(count)) for name, count in raw_types
                )
            except (TypeError, ValueError) as exc:
                raise ScenarioError(
                    "core_types must be a list of [type_name, count] pairs"
                ) from exc
        return cls(
            preset=str(data.get("preset", "opteron-8380")),
            num_cores=None if num_cores is None else int(num_cores),
            core_types=core_types,
        )


@dataclass(frozen=True)
class PolicySpec:
    """Policy axis: registry name, optional fixed levels, tunables.

    ``params`` holds JSON-scalar tunables (stored as sorted key/value
    pairs so the spec stays hashable and order-insensitive); ``config`` is
    the escape hatch for an in-memory config object (e.g.
    :class:`~repro.core.eewa.EEWAConfig`), which participates in cell keys
    but cannot be serialised to JSON.
    """

    name: str
    core_levels: Optional[tuple[int, ...]] = None
    params: tuple[tuple[str, Any], ...] = ()
    config: Any = None

    def __post_init__(self) -> None:
        POLICIES.canonical(self.name)  # fail fast on unknown names
        if self.core_levels is not None:
            object.__setattr__(
                self, "core_levels", tuple(int(v) for v in self.core_levels)
            )
        if isinstance(self.params, Mapping):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        else:
            object.__setattr__(self, "params", tuple(sorted(self.params)))

    def to_dict(self) -> dict[str, Any]:
        if self.config is not None:
            raise ScenarioError(
                f"{self.name}: an inline policy config object cannot be "
                "serialised; use JSON params"
            )
        data: dict[str, Any] = {"name": self.name}
        if self.core_levels is not None:
            data["core_levels"] = list(self.core_levels)
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        if isinstance(data, str):
            return cls(name=data)
        if not isinstance(data, Mapping):
            raise ScenarioError("policy must be a JSON object or a name string")
        unknown = set(data) - {"name", "core_levels", "params"}
        if unknown:
            raise ScenarioError(f"unknown policy fields: {sorted(unknown)}")
        if "name" not in data:
            raise ScenarioError("policy needs a 'name'")
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioError("policy params must be a JSON object")
        levels = data.get("core_levels")
        return cls(
            name=str(data["name"]),
            core_levels=None if levels is None else tuple(int(v) for v in levels),
            params=tuple(sorted(params.items())),
        )


WorkloadRef = Union[str, WorkloadSpec]


def _parse_field(name: str, parse: Callable[[Any], Any], raw: Any) -> Any:
    """``parse(raw)``; any failure becomes a :class:`ScenarioError`.

    A scenario JSON is user input, so every malformed field must surface
    as the one error type ``repro run-spec`` and the sweep service answer
    with exit code 2 and HTTP 400. The original error is chained.
    """
    try:
        return parse(raw)
    except ScenarioError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario {name}: {exc}") from exc


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluated point: machine × workload × policy × seeds.

    ``workload`` is either a registered workload name or an inline
    :class:`~repro.workloads.spec.WorkloadSpec` (both serialise to JSON).
    """

    workload: WorkloadRef
    policy: PolicySpec
    machine: MachineSpec = field(default_factory=MachineSpec)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    batches: Optional[int] = None
    #: Optional fault injection applied to every cell of this scenario.
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if isinstance(self.policy, str):
            object.__setattr__(self, "policy", PolicySpec(name=self.policy))
        if isinstance(self.workload, str):
            WORKLOADS.canonical(self.workload)  # fail fast on unknown names
        elif not isinstance(self.workload, WorkloadSpec):
            raise ScenarioError(
                "workload must be a registered name or a WorkloadSpec, "
                f"got {type(self.workload).__name__}"
            )
        if isinstance(self.seeds, int):
            object.__setattr__(self, "seeds", (self.seeds,))
        else:
            object.__setattr__(
                self, "seeds", tuple(int(s) for s in self.seeds)
            )
        if not self.seeds:
            raise ScenarioError("a scenario needs at least one seed")
        if self.batches is not None and self.batches < 1:
            raise ScenarioError("batches must be >= 1")

    # -- resolution ------------------------------------------------------

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    def resolve_workload(self) -> WorkloadSpec:
        if isinstance(self.workload, WorkloadSpec):
            return self.workload
        return WORKLOADS.get(self.workload).spec()

    def build_machine(self) -> MachineConfig:
        return self.machine.build()

    # -- derivation ------------------------------------------------------

    def with_seeds(self, seeds: Sequence[int]) -> "ScenarioSpec":
        return replace(self, seeds=tuple(seeds))

    def with_policy(self, policy: Union[str, PolicySpec]) -> "ScenarioSpec":
        return replace(
            self,
            policy=policy if isinstance(policy, PolicySpec) else PolicySpec(policy),
        )

    def with_faults(self, faults: Optional[FaultSpec]) -> "ScenarioSpec":
        return replace(self, faults=faults)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "schema": SCENARIO_SCHEMA_VERSION,
            "workload": (
                self.workload
                if isinstance(self.workload, str)
                else spec_to_dict(self.workload)
            ),
            "policy": self.policy.to_dict(),
            "machine": self.machine.to_dict(),
            "seeds": list(self.seeds),
        }
        if self.batches is not None:
            data["batches"] = self.batches
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise ScenarioError("scenario spec must be a JSON object")
        unknown = set(data) - {
            "schema", "workload", "policy", "machine", "seeds", "batches",
            "faults",
        }
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        schema = data.get("schema", SCENARIO_SCHEMA_VERSION)
        if schema not in _READABLE_SCHEMAS:
            raise ScenarioError(
                f"unsupported scenario schema {schema!r}; this version reads "
                f"schemas {sorted(_READABLE_SCHEMAS)}"
            )
        if "workload" not in data or "policy" not in data:
            raise ScenarioError("scenario spec needs 'workload' and 'policy'")
        raw_workload = data["workload"]
        workload: WorkloadRef
        if isinstance(raw_workload, str):
            workload = raw_workload
        elif isinstance(raw_workload, Mapping):
            workload = _parse_field(
                "workload", spec_from_dict, dict(raw_workload)
            )
        else:
            raise ScenarioError(
                "workload must be a registered name or an inline workload object"
            )
        machine = data.get("machine")
        seeds = data.get("seeds", DEFAULT_SEEDS)
        if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Sequence):
            raise ScenarioError("seeds must be a list of integers")
        batches = data.get("batches")
        faults = data.get("faults")
        return cls(
            workload=workload,
            policy=_parse_field("policy", PolicySpec.from_dict, data["policy"]),
            machine=(
                MachineSpec() if machine is None
                else _parse_field("machine", MachineSpec.from_dict, machine)
            ),
            seeds=_parse_field("seeds", lambda raw: tuple(int(s) for s in raw), seeds),
            batches=None if batches is None else _parse_field("batches", int, batches),
            faults=(
                None if faults is None
                else _parse_field("faults", FaultSpec.from_dict, faults)
            ),
        )

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ScenarioError(f"cannot load scenario from {path}: {exc}") from exc
        return cls.from_json(text)


__all__ = [
    "DEFAULT_SEEDS",
    "MAX_CORES",
    "MachineSpec",
    "PolicySpec",
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioSpec",
    "WorkloadRef",
]
