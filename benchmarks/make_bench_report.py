"""Convert pytest-benchmark JSON into the repo's BENCH_engine.json.

Usage::

    PYTHONPATH=src python -m pytest benchmarks -q -k engine \
        --benchmark-json /tmp/bench_raw.json
    python benchmarks/make_bench_report.py /tmp/bench_raw.json BENCH_engine.json \
        [--baseline baseline.json] [--extra extra.json]

Reports ops/sec for each macro engine benchmark and events/sec for the
event-queue micro benchmark. ``--baseline`` is an optional JSON mapping of
benchmark short-name -> pre-optimization seconds-per-op; when given, the
report includes the measured speedups. ``--extra`` merges an arbitrary JSON
object (e.g. parallel-sweep measurements) into the report verbatim.

Timings are machine-dependent and non-gating: this script never fails on a
slow run — correctness is gated separately by the golden determinism suite
(``tests/sim/test_golden_traces.py``).
"""

from __future__ import annotations

import argparse
import json
import sys

#: Events per iteration of test_bench_event_queue (kept in sync with
#: benchmarks/test_bench_engine.py::QUEUE_EVENTS).
QUEUE_EVENTS = 10_000

SHORT_NAMES = {
    "test_bench_engine_cilk_throughput": "cilk_16c",
    "test_bench_engine_eewa_throughput": "eewa_16c",
    "test_bench_engine_many_cores": "cilk_64c",
    "test_bench_engine_eewa_100batch_ff": "eewa_100batch_ff",
    "test_bench_engine_eewa_100batch_full": "eewa_100batch_full",
    "test_bench_event_queue": "event_queue",
    "test_bench_sweep_cold": "sweep_cold",
    "test_bench_sweep_warm": "sweep_warm",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw", help="pytest-benchmark JSON output")
    parser.add_argument("out", help="path of the BENCH_engine.json to write")
    parser.add_argument("--baseline", help="JSON of name -> pre-PR seconds/op")
    parser.add_argument("--extra", help="JSON object merged into the report")
    args = parser.parse_args(argv)

    with open(args.raw) as fh:
        raw = json.load(fh)
    baseline: dict[str, float] = {}
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    report: dict[str, object] = {
        "machine_info": {
            "python": raw.get("machine_info", {}).get("python_version"),
            "cpu_count": raw.get("machine_info", {}).get("cpu", {}).get("count"),
        },
        "benchmarks": {},
    }
    for bench in raw.get("benchmarks", []):
        name = SHORT_NAMES.get(bench["name"], bench["name"])
        seconds = bench["stats"]["min"]  # min-of-rounds: least-noise estimate
        entry: dict[str, float] = {
            "seconds_per_op": seconds,
            "ops_per_sec": 1.0 / seconds if seconds > 0 else 0.0,
        }
        if name == "event_queue":
            entry["events_per_sec"] = QUEUE_EVENTS / seconds if seconds > 0 else 0.0
        if name in baseline:
            entry["baseline_seconds_per_op"] = baseline[name]
            entry["speedup_vs_baseline"] = baseline[name] / seconds
        for key, value in bench.get("extra_info", {}).items():
            entry[key] = value
        # Sweep-engine rows carry their submission accounting in
        # extra_info; derive the duplicate-absorption rate from it.
        if entry.get("submissions"):
            entry["dedup_hit_rate"] = (
                entry.get("dedup_hits", 0) / entry["submissions"]
            )
        report["benchmarks"][name] = entry

    # Paired fast-forward rows: "<cell>_ff" vs "<cell>_full" measure the
    # same simulation with and without steady-state replay.
    benches = report["benchmarks"]
    for name, entry in benches.items():
        if not name.endswith("_ff"):
            continue
        full = benches.get(name[: -len("_ff")] + "_full")
        if full and entry["seconds_per_op"] > 0:
            entry["speedup_vs_full"] = (
                full["seconds_per_op"] / entry["seconds_per_op"]
            )

    # Paired cache-temperature rows: "<load>_warm" vs "<load>_cold" run
    # the same duplicate-heavy load against a warm cache vs from scratch.
    for name, entry in benches.items():
        if not name.endswith("_warm"):
            continue
        cold = benches.get(name[: -len("_warm")] + "_cold")
        if cold and entry["seconds_per_op"] > 0:
            entry["speedup_warm_vs_cold"] = (
                cold["seconds_per_op"] / entry["seconds_per_op"]
            )

    if args.extra:
        with open(args.extra) as fh:
            report.update(json.load(fh))

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
