"""ScenarioSpec serialisation, validation, and content digests.

The digest pins at the bottom are load-bearing: the result cache keys on
this digest layout (via ``SCENARIO_SCHEMA_VERSION``), so an accidental
change to the canonical encoding shows up here before it silently orphans
or — worse — aliases cache entries.
"""

import pytest

from repro.errors import ConfigurationError, ScenarioError
from repro.machine.topology import small_test_machine
from repro.scenario import (
    DEFAULT_SEEDS,
    SCENARIO_SCHEMA_VERSION,
    MAX_CORES,
    MachineSpec,
    PolicySpec,
    ScenarioSpec,
    WORKLOADS,
    spread_levels,
)


def test_scenario_error_is_a_configuration_error():
    # Callers catching the repo-wide ConfigurationError keep working.
    assert issubclass(ScenarioError, ConfigurationError)


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            workload="SHA-1",
            policy=PolicySpec("eewa", params={"headroom": 0.2}),
            machine=MachineSpec(num_cores=8),
            seeds=(3, 5),
            batches=4,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ScenarioSpec(workload="MD5", policy="cilk-d")
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_load(self, tmp_path):
        spec = ScenarioSpec(workload="LZW", policy="cilk", seeds=(7,))
        path = tmp_path / "scenario.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_bare_policy_name_accepted(self):
        spec = ScenarioSpec.from_dict({"workload": "SHA-1", "policy": "cilk"})
        assert spec.policy == PolicySpec("cilk")

    def test_inline_workload_round_trip(self):
        inline = WORKLOADS.get("SHA-1").spec()
        spec = ScenarioSpec(workload=inline, policy="cilk", seeds=(3,))
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored.resolve_workload() == inline
        assert restored.digest() == spec.digest()

    def test_core_levels_round_trip(self):
        spec = ScenarioSpec(
            workload="SHA-1",
            policy=PolicySpec("wats", core_levels=(0, 0, 1, 2)),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_faults_round_trip(self):
        from repro.faults import FaultSpec

        spec = ScenarioSpec(
            workload="SHA-1",
            policy="eewa",
            faults=FaultSpec(dvfs_deny_rate=0.25),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.faults.dvfs_deny_rate == 0.25

    def test_schema_v1_documents_still_read(self):
        # v1 scenarios (written before the faults axis) are a strict subset
        # of v2 and must keep loading.
        data = ScenarioSpec(workload="SHA-1", policy="cilk").to_dict()
        data["schema"] = 1
        spec = ScenarioSpec.from_dict(data)
        assert spec.faults is None

    def test_schema_v2_documents_still_read(self):
        # v2 scenarios (written before the core_types axis) keep loading.
        data = ScenarioSpec(workload="SHA-1", policy="cilk").to_dict()
        data["schema"] = 2
        assert ScenarioSpec.from_dict(data).machine.core_types is None

    def test_core_types_round_trip(self):
        spec = ScenarioSpec(
            workload="SHA-1",
            policy="eewa",
            machine=MachineSpec(
                preset="big-little-test",
                core_types=(("big", 2), ("little", 6)),
            ),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        machine = restored.build_machine()
        assert machine.capacities() == (("big", 2), ("little", 6))
        assert machine.num_cores == 8


class TestValidation:
    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            ScenarioSpec.from_dict(
                {"workload": "SHA-1", "policy": "cilk", "sedes": [1]}
            )

    def test_unknown_machine_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown machine fields"):
            MachineSpec.from_dict({"preset": "opteron-8380", "cores": 8})

    def test_unknown_policy_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown policy fields"):
            PolicySpec.from_dict({"name": "eewa", "levels": [0, 1]})

    def test_schema_version_mismatch_rejected(self):
        data = ScenarioSpec(workload="SHA-1", policy="cilk").to_dict()
        data["schema"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ScenarioError, match="unsupported scenario schema"):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_text(self):
        with pytest.raises(ScenarioError, match="invalid scenario JSON"):
            ScenarioSpec.from_json("{not json")

    def test_missing_required_fields(self):
        with pytest.raises(ScenarioError, match="'workload' and 'policy'"):
            ScenarioSpec.from_dict({"policy": "cilk"})

    def test_policy_needs_name(self):
        with pytest.raises(ScenarioError, match="policy needs a 'name'"):
            PolicySpec.from_dict({"params": {}})

    def test_unknown_workload_name(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            ScenarioSpec(workload="no-such-bench", policy="cilk")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ScenarioError, match="at least one seed"):
            ScenarioSpec(workload="SHA-1", policy="cilk", seeds=())

    def test_inline_machine_not_serialisable(self):
        machine = small_test_machine(num_cores=4, levels=(2.0e9, 1.5e9, 1.0e9))
        spec = ScenarioSpec(
            workload="SHA-1", policy="cilk", machine=MachineSpec.inline(machine)
        )
        with pytest.raises(ScenarioError, match="cannot be serialised"):
            spec.to_dict()

    def test_inline_policy_config_not_serialisable(self):
        from repro.core.eewa import EEWAConfig

        spec = ScenarioSpec(
            workload="SHA-1", policy=PolicySpec("eewa", config=EEWAConfig())
        )
        with pytest.raises(ScenarioError, match="cannot be serialised"):
            spec.to_dict()

    def test_core_types_on_flat_preset_rejected(self):
        spec = ScenarioSpec(
            workload="SHA-1",
            policy="cilk",
            machine=MachineSpec(
                preset="small-test", core_types=(("core", 4),)
            ),
        )
        with pytest.raises(ScenarioError, match="core_types"):
            spec.build_machine()

    def test_core_types_contradicting_num_cores_rejected(self):
        spec = MachineSpec(
            preset="big-little-test",
            num_cores=6,
            core_types=(("big", 4), ("little", 4)),
        )
        with pytest.raises(ScenarioError, match="contradicts"):
            spec.build()

    def test_malformed_core_types_rejected(self):
        with pytest.raises(ScenarioError, match="core_types"):
            MachineSpec.from_dict(
                {"preset": "big-little-test", "core_types": "big"}
            )

    @pytest.mark.parametrize("field, value, cause", [
        ("workload", {"name": "w", "classes": [{"name": "a", "count": 2}]},
         "WorkloadError"),
        ("seeds", ["a"], "ValueError"),
        ("seeds", [None], "TypeError"),
        ("batches", "many", "ValueError"),
        ("policy", {"name": "wats", "core_levels": ["x"]}, "ValueError"),
        ("machine", {"num_cores": "z"}, "ValueError"),
        ("faults", {"dvfs_deny_rate": "often"}, "ValueError"),
    ])
    def test_malformed_field_is_a_chained_scenario_error(self, field, value, cause):
        data = {"workload": "SHA-1", "policy": "cilk", field: value}
        with pytest.raises(ScenarioError, match=f"invalid scenario {field}") as exc:
            ScenarioSpec.from_dict(data)
        assert type(exc.value.__cause__).__name__ == cause


class TestCoreLimit:
    def test_max_cores_is_accepted(self):
        assert MachineSpec(num_cores=MAX_CORES).build().num_cores == MAX_CORES
        half = MAX_CORES // 2
        big_little = MachineSpec(
            preset="big-little-test", core_types=(("big", half), ("little", half))
        )
        assert big_little.build().num_cores == MAX_CORES

    @pytest.mark.parametrize("data", [
        {"num_cores": MAX_CORES + 1},
        {"num_cores": 0},
        {"preset": "big-little-test", "core_types": [["big", MAX_CORES], ["little", 1]]},
    ])
    def test_more_cores_are_refused(self, data):
        with pytest.raises(ScenarioError, match=str(MAX_CORES)):
            MachineSpec.from_dict(data)


class TestDerivation:
    def test_with_policy_keeps_everything_else(self):
        spec = ScenarioSpec(workload="SHA-1", policy="cilk", seeds=(3,), batches=2)
        derived = spec.with_policy("eewa")
        assert derived.policy.name == "eewa"
        assert (derived.workload, derived.seeds, derived.batches) == (
            spec.workload, spec.seeds, spec.batches,
        )

    def test_with_seeds(self):
        spec = ScenarioSpec(workload="SHA-1", policy="cilk")
        assert spec.with_seeds([5, 7]).seeds == (5, 7)

    def test_default_seeds(self):
        assert ScenarioSpec(workload="SHA-1", policy="cilk").seeds == DEFAULT_SEEDS


#: Pinned content digests for the four shipped policies on the default
#: Opteron 8380 preset (SHA-1, default seeds, 3 batches). The digest hashes
#: the same machine and workload content the cell keys do, so a change
#: here means every existing result-cache entry is orphaned — that must be
#: a deliberate decision, never a side effect. (Last re-pinned when the
#: machine lost its unbilled ``failed_scan_cycles`` field, in the change
#: that also bumped the cell keys' cache format to 2.)
PINNED_DIGESTS = {
    "cilk": "90bf8337e0f37456c37ae6f379e6c302421b803f053705d6650037db3c499879",
    "cilk-d": "9705c5700c5e95bf96d813a8ef2f0d075d0d4fdd2fe77cb7d1c0747d817d19c0",
    "wats": "8f45a776a34c5f31de42b38b76aa43c71b0c32f9eb684f94596ea6ea3bc4d31d",
    "eewa": "c7bfa0f76f8f224bb3dbbb635f8efd923a9b1de0a4341236eb18706bc75721cc",
}


def _pinned_scenario(policy_name):
    levels = (
        tuple(spread_levels(16, 4)) if policy_name == "wats" else None
    )
    return ScenarioSpec(
        workload="SHA-1",
        policy=PolicySpec(policy_name, core_levels=levels),
        batches=3,
    )


class TestDigest:
    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_pinned_digests(self, name):
        assert _pinned_scenario(name).digest() == PINNED_DIGESTS[name]

    def test_digest_is_stable_across_instances(self):
        assert _pinned_scenario("eewa").digest() == _pinned_scenario("eewa").digest()

    def test_digest_survives_json_round_trip(self):
        spec = _pinned_scenario("cilk")
        assert ScenarioSpec.from_json(spec.to_json()).digest() == spec.digest()

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: s.with_seeds((99,)),
            lambda s: s.with_policy("cilk-d"),
            lambda s: ScenarioSpec(
                workload="MD5", policy=s.policy, seeds=s.seeds, batches=s.batches
            ),
            lambda s: ScenarioSpec(
                workload=s.workload, policy=s.policy, seeds=s.seeds, batches=5
            ),
            lambda s: ScenarioSpec(
                workload=s.workload,
                policy=s.policy,
                machine=MachineSpec(num_cores=8),
                seeds=s.seeds,
                batches=s.batches,
            ),
        ],
    )
    def test_any_field_change_changes_the_digest(self, change):
        base = _pinned_scenario("cilk")
        assert change(base).digest() != base.digest()

    def test_faults_change_the_digest(self):
        from repro.faults import FaultSpec

        base = _pinned_scenario("cilk")
        faulted = base.with_faults(FaultSpec(stall_rate=0.1, stall_duration_s=1e-3))
        assert faulted.digest() != base.digest()

    def test_policy_params_change_the_digest(self):
        base = ScenarioSpec(workload="SHA-1", policy=PolicySpec("eewa"))
        tuned = ScenarioSpec(
            workload="SHA-1", policy=PolicySpec("eewa", params={"headroom": 0.2})
        )
        assert base.digest() != tuned.digest()
