"""Scenario layer: typed specs, plugin registries, one Session facade.

The three pieces, bottom-up:

* :mod:`repro.scenario.registry` — plugin registries for policies,
  machine presets, and workloads (``@register_policy`` & friends);
* :mod:`repro.scenario.spec` — the frozen, JSON-round-trippable
  :class:`ScenarioSpec` with a schema-versioned content digest;
* :mod:`repro.scenario.session` — :class:`Session`, the one entry point
  the CLI, exhibits, and checks use to turn scenarios into results.
"""

from repro.scenario.registry import (
    MACHINES,
    POLICIES,
    WORKLOADS,
    MachinePresetEntry,
    PolicyEntry,
    Registry,
    WorkloadEntry,
    baseline_policy_names,
    register_machine,
    register_policy,
    register_workload,
    spread_levels,
    workload_names,
)
from repro.scenario.spec import (
    DEFAULT_SEEDS,
    MAX_CORES,
    SCENARIO_SCHEMA_VERSION,
    MachineSpec,
    PolicySpec,
    ScenarioSpec,
)
from repro.scenario.session import Session

__all__ = [
    "DEFAULT_SEEDS",
    "MACHINES",
    "MAX_CORES",
    "MachinePresetEntry",
    "MachineSpec",
    "POLICIES",
    "PolicyEntry",
    "PolicySpec",
    "Registry",
    "SCENARIO_SCHEMA_VERSION",
    "ScenarioSpec",
    "Session",
    "WORKLOADS",
    "WorkloadEntry",
    "baseline_policy_names",
    "register_machine",
    "register_policy",
    "register_workload",
    "spread_levels",
    "workload_names",
]
