"""Scenario layer: typed specs and plugin registries.

The two pieces, bottom-up:

* :mod:`repro.scenario.registry` — plugin registries for policies,
  machine presets, and workloads (``@register_policy`` & friends);
* :mod:`repro.scenario.spec` — the frozen, JSON-round-trippable
  :class:`ScenarioSpec`, one point of the evaluation space.

Scenarios run on the sweep engine (``SweepEngine``, in the experiments
layer), which the CLI, the exhibits and ``repro serve`` all use to turn
them into results; this package imports nothing from the layers that run
it.
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
    "WORKLOADS",
    "WorkloadEntry",
    "baseline_policy_names",
    "register_machine",
    "register_policy",
    "register_workload",
    "spread_levels",
    "workload_names",
]
