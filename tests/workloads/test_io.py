"""Tests for workload spec serialisation."""

import json

import pytest

from repro.errors import WorkloadError
from repro.workloads.benchmarks import BENCHMARK_NAMES, benchmark_spec
from repro.workloads.io import load_spec, save_spec, spec_from_dict, spec_to_dict
from repro.workloads.spec import TaskClassSpec, WorkloadSpec
from repro.workloads.synthetic import phased_spec


class TestRoundTrip:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_benchmark_specs_round_trip(self, name):
        spec = benchmark_spec(name)
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec

    def test_phased_spec_round_trips_optional_fields(self):
        spec = phased_spec(amplitude=0.2, period=6)
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec
        cls = back.class_named("refine_pass")
        assert cls.phase_amplitude == 0.2
        assert cls.phase_period == 6

    def test_file_round_trip(self, tmp_path):
        spec = benchmark_spec("DMC")
        path = tmp_path / "dmc.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_defaults_omitted_from_serialisation(self):
        spec = WorkloadSpec(
            name="t",
            classes=(TaskClassSpec("w", count=2, mean_seconds=0.01),),
        )
        entry = spec_to_dict(spec)["classes"][0]
        assert set(entry) == {"name", "count", "mean_ms"}

    def test_inexact_ms_falls_back_to_seconds(self):
        spec = WorkloadSpec(
            name="t",
            classes=(TaskClassSpec("w", count=2, mean_seconds=0.0021),),
        )
        entry = spec_to_dict(spec)["classes"][0]
        assert "mean_s" in entry and "mean_ms" not in entry

    def test_both_mean_fields_rejected(self):
        with pytest.raises(WorkloadError):
            spec_from_dict(
                {
                    "name": "x",
                    "classes": [
                        {"name": "a", "count": 1, "mean_ms": 1.0, "mean_s": 0.001}
                    ],
                }
            )


class TestValidation:
    def test_missing_fields_rejected(self):
        with pytest.raises(WorkloadError):
            spec_from_dict({"name": "x"})
        with pytest.raises(WorkloadError):
            spec_from_dict({"classes": []})

    def test_unknown_class_fields_rejected(self):
        with pytest.raises(WorkloadError, match="unknown class fields"):
            spec_from_dict(
                {
                    "name": "x",
                    "classes": [
                        {"name": "a", "count": 1, "mean_ms": 1.0, "priority": 3}
                    ],
                }
            )

    def test_invalid_class_values_rejected(self):
        with pytest.raises(WorkloadError):
            spec_from_dict(
                {"name": "x", "classes": [{"name": "a", "count": 0, "mean_ms": 1.0}]}
            )

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(WorkloadError):
            load_spec(path)
        with pytest.raises(WorkloadError):
            load_spec(tmp_path / "missing.json")

    def test_non_object_rejected(self):
        with pytest.raises(WorkloadError):
            spec_from_dict([1, 2, 3])


class TestCliRunSpec:
    def test_cli_runs_saved_spec(self, tmp_path, capsys):
        from repro.cli import main

        saved = tmp_path / "sha1.json"
        save_spec(benchmark_spec("SHA-1"), saved)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "workload": json.loads(saved.read_text()),
            "policy": "eewa",
            "seeds": [11],
        }))
        assert main(["run-spec", str(scenario), "--batches", "2"]) == 0
        out = capsys.readouterr().out
        assert "SHA-1 / eewa" in out
        assert "batch   1" in out

    def test_bare_workload_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sha1.json"
        save_spec(benchmark_spec("SHA-1"), path)
        assert main(["run-spec", str(path), "eewa", "--batches", "2"]) == 2
        assert "unknown scenario fields" in capsys.readouterr().err
