"""Small-scale runs of the end-to-end benchmark (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e

Every workload runs for about a second, untraced and traced, in its own
process, through the same command line as a full run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ["--seconds", "1", "--min-cells", "48", "--seed", "7"]
IN_PROCESS = ("paper-grid-cold", "steady-periodic", "auto-explore")


def _run(*args: str, script: Path = RUN, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def _units(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_emits_every_metric(workload: str) -> None:
    code, out = _run("--workload", workload, "--trace", "0", *SMALL)
    assert code == 0, out
    result = _result(out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 48
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())

    code, out = _run("--workload", workload, "--trace", "1", *SMALL)
    assert code == 0, out
    traced = _result(out)
    assert _units(traced) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    if workload in IN_PROCESS:
        assert traced["metrics"]["trace.coverage"]["value"] >= 0.9


def test_corrupt_scalar_fails_the_run(tmp_path: Path) -> None:
    """A wrong scalar from the engine is caught by the direct re-run."""
    runner = tmp_path / "corrupt.py"
    runner.write_text(
        "import runpy, sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "import repro.experiments.parallel as parallel\n"
        "real = parallel.simulate\n"
        "def corrupt(*args, **kwargs):\n"
        "    result = real(*args, **kwargs)\n"
        "    result.total_joules *= 1.0 + 1e-9\n"
        "    return result\n"
        "parallel.simulate = corrupt\n"
        f"sys.argv = [{str(RUN)!r}] + sys.argv[1:]\n"
        f"runpy.run_path({str(RUN)!r}, run_name='__main__')\n"
    )
    code, out = _run("--workload", "paper-grid-cold", *SMALL, script=runner)
    assert code == 1
    result = _result(out)
    assert not result["correct"]
    assert result["failed"] >= result["attempted"] // 16


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, out = _run("--workload", "paper-grid-cold", *SMALL,
                     script=tmp_path / "benchmarks/e2e/run.py", cwd=tmp_path)
    assert code != 0
    assert '"correct"' not in out
