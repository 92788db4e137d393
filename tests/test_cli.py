"""Tests for the command-line interface."""

import json
import re
import threading

import pytest

from repro.cli import EXHIBITS, main
from repro.experiments import cachectl
from repro.experiments.sweep import SweepEngine
from repro.scenario import ScenarioSpec
from repro.scenario.spec import MAX_CORES
from repro.service.server import SweepServer, resolve_scenario, serve


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BWC" in out and "SHA-1" in out
        assert "eewa" in out

    def test_run(self, capsys):
        assert main(["run", "MD5", "eewa", "--batches", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "MD5 / eewa" in out
        assert "energy breakdown" in out

    def test_run_with_trace(self, capsys):
        assert main(
            ["run", "DMC", "cilk", "--batches", "2", "--trace"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch   0" in out
        assert "batch   1" in out

    def test_run_small_machine(self, capsys):
        assert main(["run", "LZW", "cilk-d", "--batches", "2", "--cores", "4"]) == 0
        assert "4 cores" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "SHA-1", "--batches", "3"]) == 0
        out = capsys.readouterr().out
        for policy in ("cilk", "cilk-d", "eewa"):
            assert policy in out
        assert "E/cilk" in out

    def test_figure_fig1(self, capsys):
        assert main(["figure", "fig1"]) == 0
        assert "Fig. 1" in capsys.readouterr().out

    def test_figure_fig8(self, capsys):
        assert main(["figure", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 8" in out and "2.5GHz" in out

    def test_figure_table3(self, capsys):
        assert main(["figure", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    @pytest.mark.parametrize("exhibit", list(EXHIBITS))
    def test_figure_prints_every_exhibit(self, exhibit, capsys):
        title = {
            "fig1": "Fig. 1", "fig6": "Fig. 6", "fig7": "Fig. 7",
            "fig8": "Fig. 8", "fig9": "Fig. 9", "fig_hetero": "big.LITTLE",
            "table3": "Table III",
        }[exhibit]
        assert main(["figure", exhibit, "--seed", "23"]) == 0
        assert title in capsys.readouterr().out

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "kernel stage costs" in out
        assert "bwt_block" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "SPECfp", "eewa"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bench_is_gone(self, capsys):
        # ``repro sweep`` is the one grid command.
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestWatsCli:
    def test_run_wats_derives_modal_levels(self, capsys):
        assert main(
            ["run", "SHA-1", "wats", "--batches", "2", "--cores", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "SHA-1 / wats" in out
        assert "EEWA's modal configuration" in out

    def test_run_wats_explicit_levels(self, capsys):
        assert main(
            ["run", "SHA-1", "wats", "--batches", "2", "--cores", "4",
             "--core-levels", "0", "0", "1", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "SHA-1 / wats" in out
        assert "modal configuration" not in out

    def test_explicit_levels_rejected_for_eewa(self, capsys):
        assert main(
            ["run", "SHA-1", "eewa", "--batches", "2", "--cores", "4",
             "--core-levels", "0", "0", "1", "2"]
        ) == 2
        assert "does not take fixed core levels" in capsys.readouterr().err

    def test_compare_with_wats(self, capsys):
        assert main(
            ["compare", "SHA-1", "--batches", "2", "--cores", "4",
             "--policies", "cilk", "wats", "eewa"]
        ) == 0
        out = capsys.readouterr().out
        for policy in ("cilk", "wats", "eewa"):
            assert policy in out
        assert "t/cilk" in out and "E/cilk" in out


class TestRunSpecScenario:
    def _write(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_full_scenario_json(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "schema": 1,
            "workload": "SHA-1",
            "policy": {"name": "eewa", "params": {"headroom": 0.2}},
            "machine": {"preset": "opteron-8380", "num_cores": 8},
            "seeds": [11],
            "batches": 2,
        })
        assert main(["run-spec", path]) == 0
        out = capsys.readouterr().out
        assert "SHA-1 / eewa on 8 cores" in out

    def test_scenario_policy_override(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "workload": "MD5",
            "policy": "cilk",
            "machine": {"preset": "small-test"},
            "seeds": [3],
            "batches": 2,
        })
        assert main(["run-spec", path, "cilk-d"]) == 0
        assert "MD5 / cilk-d" in capsys.readouterr().out

    def test_unknown_scenario_field_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "workload": "SHA-1", "policy": "cilk", "sedes": [1],
        })
        assert main(["run-spec", path]) == 2
        assert "unknown scenario fields" in capsys.readouterr().err

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "schema": 99, "workload": "SHA-1", "policy": "cilk",
        })
        assert main(["run-spec", path]) == 2
        assert "unsupported scenario schema" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["run-spec", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_inline_class_without_a_mean_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "workload": {"name": "w", "classes": [{"name": "a", "count": 2}]},
            "policy": "cilk",
        })
        assert main(["run-spec", path]) == 2
        assert "exactly one of mean_ms / mean_s" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, field", [
        ({"mean_s": float("nan")}, "mean_seconds"),
        ({"mean_ms": float("inf")}, "mean_seconds"),
        ({"mean_ms": 1.0, "jitter_sigma": float("nan")}, "jitter_sigma"),
        ({"mean_ms": 1.0, "phase_amplitude": 0.5, "phase_period": float("nan")},
         "phase_period"),
    ])
    def test_non_finite_class_parameter_exits_2(self, tmp_path, capsys, overrides, field):
        # NaN slipped past the class's ordered checks, and generation then
        # died on a bare ValueError: exit 1 with a traceback.
        path = self._write(tmp_path, {
            "workload": {"name": "w", "classes": [dict(name="a", count=2, **overrides)]},
            "policy": "cilk",
            "seeds": [1],
            "batches": 1,
        })
        assert main(["run-spec", path]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario workload" in err
        assert f"{field} must be finite" in err

    def test_non_integer_seed_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "workload": "SHA-1", "policy": "cilk", "seeds": ["a"],
        })
        assert main(["run-spec", path]) == 2
        assert "invalid scenario seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("machine", [
        {"num_cores": MAX_CORES + 1},
        {"preset": "big-little-test", "core_types": [["big", MAX_CORES], ["little", 1]]},
    ])
    def test_more_than_max_cores_exits_2(self, tmp_path, capsys, machine):
        # Such a cell used to run, at a cost that grows with the core
        # count (100,000 cores: 3.3 s and 299 MB for one batch).
        path = self._write(tmp_path, {
            "workload": "SHA-1", "policy": "cilk", "seeds": [1], "batches": 1,
            "machine": machine,
        })
        assert main(["run-spec", path]) == 2
        assert f"{MAX_CORES}" in capsys.readouterr().err

    def test_max_cores_runs(self, tmp_path, capsys):
        path = self._write(tmp_path, {
            "workload": "SHA-1", "policy": "cilk", "seeds": [1], "batches": 1,
            "machine": {"num_cores": MAX_CORES},
        })
        assert main(["run-spec", path]) == 0
        assert f"on {MAX_CORES} cores" in capsys.readouterr().out


def _sweep_args(cache_dir, *extra):
    return [
        "sweep", "--benchmarks", "SHA-1", "--policies", "cilk",
        "--seeds", "11", "--batches", "2", "--cache-dir", str(cache_dir),
        *extra,
    ]


class TestSweepCli:
    def test_sweep_streams_cells_and_reports_dedup(self, tmp_path, capsys):
        assert main(_sweep_args(tmp_path / "c", "--repeat", "3")) == 0
        out = capsys.readouterr().out
        assert out.count("done SHA-1/cilk seed 11") == 3
        assert "1 simulated" in out
        assert "2 coalesced in flight" in out
        assert "dedup rate 66.7%" in out

    def test_sweep_warm_run_writes_json(self, tmp_path, capsys):
        cache = tmp_path / "c"
        assert main(_sweep_args(cache, "--quiet")) == 0
        capsys.readouterr()
        json_path = tmp_path / "sweep.json"
        assert main(_sweep_args(cache, "--quiet", "--json", str(json_path))) == 0
        payload = json.loads(json_path.read_text())
        assert payload["stats"]["submissions"] == 1
        assert payload["stats"]["executed"] == 0
        assert payload["stats"]["cache_hits"] == 1
        assert payload["stats"]["latency_p99_s"] >= payload["stats"]["latency_p50_s"]
        (cell,) = payload["cells"]
        assert cell["from_cache"] is True

    def test_sweep_no_cache_simulates_every_distinct_cell(self, tmp_path, capsys):
        assert main(_sweep_args(tmp_path / "c", "--no-cache", "--quiet")) == 0
        assert "1 simulated" in capsys.readouterr().out
        assert not (tmp_path / "c").exists()

    def test_negative_workers_exits_2(self, tmp_path, capsys):
        assert main(_sweep_args(tmp_path / "c", "--workers", "-1")) == 2
        assert "error: workers must be non-negative" in capsys.readouterr().err

    def test_forced_model_fidelity_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_sweep_args(tmp_path / "c", "--fidelity", "model"))
        assert exc.value.code == 2
        assert "invalid choice: 'model'" in capsys.readouterr().err


class TestServeCli:
    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "-1", "workers must be non-negative"),
        ("--max-pending", "0", "max_pending must be positive"),
        ("--max-pending", "-5", "max_pending must be positive"),
    ])
    def test_unusable_setting_exits_2(self, monkeypatch, capsys, flag, value, message):
        # A server that got built returns at once instead of serving.
        monkeypatch.setattr(SweepServer, "serve_forever", lambda self: None)
        assert main(["serve", "--port", "0", "--no-cache", flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err


class TestRemoteSweepCli:
    def test_sweep_remote_streams_through_a_server(self, tmp_path, capsys):
        import threading

        from repro.service.server import serve

        srv = serve(port=0, cache_dir=tmp_path / "cache")
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        assert srv.wait_until_serving()
        try:
            url = f"http://127.0.0.1:{srv.server_port}"
            json_path = tmp_path / "remote.json"
            assert main(_sweep_args(
                tmp_path / "unused-local-cache", "--remote", url,
                "--json", str(json_path),
            )) == 0
            out = capsys.readouterr().out
            assert "done SHA-1/cilk seed 11" in out
            assert f"streamed from {url}" in out
            payload = json.loads(json_path.read_text())
            assert payload["summary"]["cells"] == 1
            (cell,) = payload["cells"]
            assert cell["benchmark"] == "SHA-1"
            assert cell["total_joules"] > 0
        finally:
            srv.drain_and_close()
            thread.join(timeout=10)


@pytest.fixture()
def remote_url(tmp_path):
    srv = serve(port=0, cache_dir=tmp_path / "server-cache")
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    assert srv.wait_until_serving()
    yield f"http://127.0.0.1:{srv.server_port}"
    srv.drain_and_close()
    thread.join(timeout=10)


GRID_BENCHMARKS = ("SHA-1", "MD5")
GRID_POLICIES = ("cilk", "wats")


def _grid_args(*extra):
    return [
        "sweep", "--benchmarks", *GRID_BENCHMARKS, "--policies", *GRID_POLICIES,
        "--seeds", "11", "23", "--batches", "2", *extra,
    ]


LOCAL = ("--workers", "0", "--no-cache")


class TestSweepReport:
    def test_prints_the_table_of_means(self, capsys):
        assert main(_grid_args(*LOCAL, "--quiet")) == 0
        out = capsys.readouterr().out
        assert "sweep means — 2 benchmarks x 2 policies x 2 seeds" in out
        with SweepEngine() as engine:
            for benchmark in GRID_BENCHMARKS:
                for policy in GRID_POLICIES:
                    spec = resolve_scenario(engine, ScenarioSpec(
                        workload=benchmark, policy=policy, seeds=(11, 23),
                        batches=2,
                    ))
                    (outcome,) = engine.run_grid([spec])
                    row = (
                        rf"\n{re.escape(benchmark)}\s+{policy}\s+"
                        rf"{outcome.time_mean * 1e3:.3f}\s+"
                        rf"{outcome.energy_mean:.3f}\s*\n"
                    )
                    assert re.search(row, out), row

    def test_repeat_below_one_exits_2(self, capsys):
        assert main(_grid_args(*LOCAL, "--repeat", "0")) == 2
        assert "--repeat must be >= 1" in capsys.readouterr().err

    def test_repeated_grid_resolves_core_levels_once(self, capsys):
        # One EEWA cell derives wats's levels; the repeats coalesce.
        assert main([
            "sweep", "--benchmarks", "SHA-1", "--policies", "wats",
            "--seeds", "11", "--batches", "2", "--repeat", "3", *LOCAL,
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("done SHA-1/wats seed 11") == 3
        assert "2 simulated" in out

    def test_faults_report_locally_and_remote(self, tmp_path, capsys, remote_url):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"schema": 1, "dvfs_deny_rate": 0.3}))
        payloads = []
        for where in (LOCAL, ("--remote", remote_url)):
            path = tmp_path / f"sweep{len(payloads)}.json"
            assert main(_grid_args(
                "--faults", str(faults), "--json", str(path), *where
            )) == 0
            out = capsys.readouterr().out
            assert "resilience report — degradation under" in out
            assert out.count(" faulted: ") == 8
            payloads.append(json.loads(path.read_text()))
        local, remote = payloads
        assert [
            (row["benchmark"], row["policy"], row["completed"])
            for row in local["resilience"]
        ] == [(b, p, True) for b in GRID_BENCHMARKS for p in GRID_POLICIES]
        assert remote["resilience"] == local["resilience"]
        assert local["faults"]["dvfs_deny_rate"] == 0.3
        assert sum(row["faulted"] for row in local["cells"]) == 8

    def test_local_and_remote_cold_grids_report_alike(
        self, tmp_path, capsys, remote_url
    ):
        reports = []
        for where in (
            ("--workers", "0", "--cache-dir", str(tmp_path / "local-cache")),
            ("--remote", remote_url),
        ):
            path = tmp_path / f"sweep{len(reports)}.json"
            assert main(_grid_args("--json", str(path), *where)) == 0
            lines = capsys.readouterr().out.splitlines()
            cells = sorted(line for line in lines if line.startswith("  done "))
            tables = [line for line in lines if not line.startswith("  ")]
            rows = sorted(
                json.dumps(
                    {k: v for k, v in row.items() if k != "latency_s"},
                    sort_keys=True,
                )
                for row in json.loads(path.read_text())["cells"]
            )
            reports.append((cells, tables, rows))
        assert reports[0] == reports[1]
        cells, tables, rows = reports[0]
        assert tables[0].startswith("sweep means")
        assert len(cells) == len(rows) == 8
        assert all(line.endswith("[simulated]") for line in cells)


class TestInterruptExitCode:
    def test_keyboard_interrupt_maps_to_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_sweep", interrupted)
        assert main(_sweep_args("unused")) == 130
        assert "interrupted" in capsys.readouterr().err


class TestCacheCli:
    def test_stats_migrate_prune_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        assert main(_sweep_args(cache, "--quiet")) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries: 1\n" in capsys.readouterr().out

        # There is no ``cache migrate``: argparse rejects it with exit 2.
        with pytest.raises(SystemExit) as exc:
            main(["cache", "migrate", "--cache-dir", cache])
        assert exc.value.code == 2
        capsys.readouterr()

        assert main(["cache", "prune", "--cache-dir", cache,
                     "--max-bytes", "0"]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_prune_without_bounds_exits_2(self, tmp_path, capsys):
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 2
        assert "needs --max-age-days and/or --max-bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--max-age-days", "-1"),
        ("--max-age-days", "nan"),
        ("--max-bytes", "-1"),
    ])
    def test_prune_rejects_out_of_range_bound(self, tmp_path, capsys, flag, value):
        cache = str(tmp_path / "c")
        assert main(_sweep_args(cache, "--quiet")) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", cache, flag, value]) == 2
        assert f"{flag} must be >= 0" in capsys.readouterr().err
        assert cachectl.cache_stats(cache).entries == 1  # nothing deleted
