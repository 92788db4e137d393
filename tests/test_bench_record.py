"""``BENCH_e2e.json``, the record of speed claims, is well formed.

Each row must name a workload and an end-to-end metric that
``BENCHMARK.json`` defines, with that metric's unit, and must meet the
bar a claim has to pass: at least ten alternating parent/change pairs,
the change winning nine in ten, and a change median better than the
parent's by more than the parent's interquartile range where one is
recorded.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = json.loads((ROOT / "BENCH_e2e.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}

ROW_FIELDS = {
    "pr", "commit", "host", "workload", "metric", "unit", "seeds",
    "parent", "change", "parent_iqr", "pairs_run", "pairs_won",
}
ROWS = RECORD["rows"]


def _label(row):
    return f"pr{row['pr']}-{row['workload']}-{row['metric']}"


def test_record_has_rows():
    assert ROWS


@pytest.mark.parametrize("row", ROWS, ids=_label)
class TestClaimRow:
    def test_fields(self, row):
        assert set(row) == ROW_FIELDS
        assert isinstance(row["pr"], int) and row["pr"] > 0
        assert re.fullmatch(r"[0-9a-f]{7,40}", row["commit"])
        host = row["host"]
        assert set(host) == {"cpus", "cpu_model", "python"}
        assert isinstance(host["cpus"], int) and host["cpus"] > 0
        assert host["cpu_model"] is None or isinstance(host["cpu_model"], str)
        assert re.fullmatch(r"3\.\d+\.\d+", host["python"])

    def test_names_a_benchmark_workload_and_metric(self, row):
        assert row["workload"] in WORKLOADS
        assert row["metric"] in METRICS
        assert row["unit"] == METRICS[row["metric"]]["unit"]

    def test_pairs(self, row):
        assert row["pairs_run"] >= 10
        assert 0.9 * row["pairs_run"] <= row["pairs_won"] <= row["pairs_run"]
        # One seed per pair.
        seeds = row["seeds"]
        assert all(isinstance(s, int) for s in seeds)
        assert len(set(seeds)) == len(seeds) == row["pairs_run"]

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_quartiles_bracket_the_median(self, row, side):
        stats = row[side]
        assert set(stats) == {"median", "q1", "q3"}
        q1, median, q3 = stats["q1"], stats["median"], stats["q3"]
        assert (q1 is None) == (q3 is None)
        if q1 is not None:
            assert q1 <= median <= q3

    def test_change_beats_the_parent(self, row):
        gap = row["change"]["median"] - row["parent"]["median"]
        if METRICS[row["metric"]]["better"] == "lower":
            gap = -gap
        assert gap > 0
        iqr = row["parent_iqr"]
        if iqr is not None:
            assert gap > iqr
            parent = row["parent"]
            if parent["q1"] is not None:
                assert iqr == pytest.approx(parent["q3"] - parent["q1"], abs=0.01)
