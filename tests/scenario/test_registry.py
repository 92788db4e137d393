"""Registry behaviour: registration, one name per entry, metadata-driven
validation."""

import warnings

import pytest

from repro.errors import ScenarioError
from repro.scenario.registry import (
    MACHINES,
    POLICIES,
    WORKLOADS,
    PolicyEntry,
    Registry,
    baseline_policy_names,
    spread_levels,
    spread_levels_for,
    workload_names,
)


def _entry(name):
    return PolicyEntry(name=name, builder=lambda **kw: None)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = Registry("policy")
        reg.register(_entry("p"))
        with pytest.raises(ScenarioError, match="duplicate policy name 'p'"):
            reg.register(_entry("p"))

    def test_unknown_name_lists_registered(self):
        reg = Registry("policy")
        reg.register(_entry("p"))
        with pytest.raises(ScenarioError, match="unknown policy 'x'.*registered: p"):
            reg.get("x")

    def test_canonical_name_warns_nothing(self):
        reg = Registry("policy")
        reg.register(_entry("p"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg.canonical("p") == "p"

    def test_contains_and_len(self):
        reg = Registry("policy")
        reg.register(_entry("p"))
        assert "p" in reg and "q" not in reg
        assert len(reg) == 1
        assert reg.names() == ("p",)


class TestShippedEntries:
    def test_shipped_policy_names(self):
        assert POLICIES.names() == ("cilk", "cilk-d", "wats", "eewa")

    def test_cilk_d_legacy_spelling(self, capsys):
        from repro.cli import main

        with pytest.raises(
            ScenarioError, match="unknown policy 'cilk_d'.*registered: cilk, cilk-d"
        ):
            POLICIES.get("cilk_d")
        with pytest.raises(SystemExit) as exc:
            main(["run", "SHA-1", "cilk_d"])
        assert exc.value.code == 2
        assert "invalid choice: 'cilk_d'" in capsys.readouterr().err

    def test_baseline_policy_names(self):
        # wats needs a caller-chosen level vector, so it is not in the
        # default Cilk-normalised comparison set.
        assert baseline_policy_names() == ("cilk", "cilk-d", "eewa")

    def test_machine_presets(self):
        assert set(MACHINES.names()) == {
            "opteron-8380", "opteron-8380-socket", "big-little-test",
            "small-test",
        }
        assert MACHINES.get("opteron-8380").build().num_cores == 16
        assert MACHINES.get("small-test").build().num_cores == 4

    def test_big_little_preset(self):
        entry = MACHINES.get("big-little-test")
        assert entry.supports_core_types
        machine = entry.build()
        assert machine.is_heterogeneous
        assert machine.capacities() == (("big", 4), ("little", 4))
        skewed = entry.build(core_types=(("big", 2), ("little", 6)))
        assert skewed.capacities() == (("big", 2), ("little", 6))
        # Plain num_cores rescales the partition proportionally.
        assert entry.build(4).capacities() == (("big", 2), ("little", 2))

    def test_flat_presets_reject_core_types(self):
        with pytest.raises(ScenarioError, match="core_types"):
            MACHINES.get("small-test").build(core_types=(("core", 4),))

    def test_workload_names(self):
        assert workload_names(table2_only=True) == (
            "BWC", "Bzip-2", "DMC", "JE", "LZW", "MD5", "SHA-1",
        )
        assert set(workload_names()) - set(workload_names(table2_only=True)) == {
            "STREAM-like", "DMC-phased", "periodic",
        }
        assert WORKLOADS.get("SHA-1").table2


class TestBuildValidation:
    def test_wats_requires_core_levels(self):
        with pytest.raises(ScenarioError, match="requires fixed core_levels"):
            POLICIES.get("wats").build()

    def test_eewa_rejects_core_levels(self):
        with pytest.raises(ScenarioError, match="does not take fixed core levels"):
            POLICIES.get("eewa").build(core_levels=[0, 1, 2, 3])

    def test_cilk_accepts_core_levels(self):
        policy = POLICIES.get("cilk").build(core_levels=[0, 0, 1, 1])
        assert policy.name == "cilk"

    def test_unknown_params_rejected(self):
        with pytest.raises(ScenarioError, match="unknown params"):
            POLICIES.get("eewa").build(params={"warp_factor": 9})

    def test_eewa_params_and_config_are_exclusive(self):
        from repro.core.eewa import EEWAConfig

        with pytest.raises(ScenarioError, match="not both"):
            POLICIES.get("eewa").build(
                params={"headroom": 0.2}, config=EEWAConfig()
            )


class TestSpreadLevels:
    def test_battery_vector(self):
        assert spread_levels(4, 3) == [0, 0, 1, 2]

    def test_opteron_vector(self):
        levels = spread_levels(16, 4)
        assert len(levels) == 16
        assert sorted(set(levels)) == [0, 1, 2, 3]
        assert levels == sorted(levels)

    def test_more_levels_than_cores(self):
        assert max(spread_levels(2, 4)) <= 3

    def test_invalid_inputs(self):
        with pytest.raises(ScenarioError):
            spread_levels(0, 3)
        with pytest.raises(ScenarioError):
            spread_levels(4, 0)

    def test_machine_aware_matches_flat_on_homogeneous(self):
        machine = MACHINES.get("opteron-8380").build()
        assert spread_levels_for(machine) == spread_levels(
            machine.num_cores, machine.r
        )

    def test_machine_aware_spreads_within_each_type(self):
        machine = MACHINES.get("big-little-test").build()
        levels = spread_levels_for(machine)
        assert levels == [0, 1, 2, 3, 0, 1, 2, 3]
        # Every entry is valid on its core's own ladder.
        for core_id, level in enumerate(levels):
            machine.ladder_of(core_id).validate_index(level)
