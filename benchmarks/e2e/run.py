"""The end-to-end benchmark: per-cell latency and throughput of EEWA cells.

One workload per process::

    python3 benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

sends ``max(504, seconds x rate)`` cells, rounded up to whole blocks of
the workload's mix, where ``rate`` is the workload's throughput at
reference speed; every run with a seed does the same work and lasts about
``--seconds`` there. Times are reported at reference speed (pace.py: each
interval is scaled by a fixed reference task timed around it), which
takes the host's speed changes out of them; the printed lines give the
wall-clock values too. It prints every end-to-end metric by name with its
unit (``--trace 1``: every per-layer metric instead, from spans around
each layer's public calls), checks the outputs, and ends with one JSON
line::

    {"correct": true, "attempted": 532, "failed": 0, "metrics": {...}}

It exits 1 when a check fails. Without ``--workload`` it runs every
workload of BENCHMARK.json, each in a fresh process (``--runs N`` repeats
the suite with seeds ``--seed``, ``--seed`` + 1, ...; ``--out FILE`` appends each run as a
JSON line for ``compare.py``; ``--trace 1`` adds a traced run per workload
and prints the tracing overhead).

The checks: every 16th cell is re-run through a direct ``simulate()``
call (bit-identical for simulated cells, within ``MAX_RELATIVE_ERROR`` for
model cells), and on the pinned seeds the digest of the run's first 504
cells must equal ``pinned.json``. README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for caches, sockets and traces; inside the checkout.
OUT_DIR = ROOT / ".e2e-bench"

#: The held-out seed for claims, 20141, is pinned in pinned.json too.
DEFAULT_SEED = 61050
#: Cells every run sends at least; also the size of the prefix (Table II x
#: 4 policies x 18 seeds on paper-grid-cold). p90 then has at least 50
#: samples beyond it.
MIN_CELLS = 504
SETUP_REPS = 3
#: Reference tasks timed right before and right after the timed phase.
EDGE_PROBES = 8
CHECK_EVERY = 16
#: Cilk twins simulated directly when a workload has no cilk arm.
TWINS = 16

#: The paper's headline band for eewa against cilk over Table II.
PAPER_ENERGY = (1 - 0.298, 1 - 0.087)
PAPER_TIME = (1 + 0.008, 1 + 0.037)


#: Run by a fresh interpreter: the imports a workload process pays for.
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; started = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - started)"
)


def _import_seconds() -> float:
    """Seconds a fresh interpreter spends importing the program."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
        capture_output=True, text=True, check=True,
    )
    return float(probe.stdout)


def _quantile_ms(latencies: list[float], pct: int) -> float:
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _digest(prefix: list[Any]) -> str:
    lines = sorted(
        json.dumps([list(vars(r.cell).values()), r.scalars], sort_keys=True)
        for r in prefix
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _ratios(prefix: list[Any], wl: Any) -> tuple[float, float]:
    """Geometric mean of eewa/cilk energy and time over the prefix's pairs.

    Cells pair on everything but the policy. A workload with no cilk arm
    gets cilk twins of its first eewa cells by direct simulation.
    """
    groups: dict[Any, dict[str, dict[str, Any]]] = {}
    for record in prefix:
        if record.scalars is not None:
            groups.setdefault(record.cell.twin("*"), {})[record.cell.policy] = record.scalars
    pairs = [(g["eewa"], g["cilk"]) for g in groups.values() if "eewa" in g and "cilk" in g]
    if not pairs:
        eewa = ((key, g["eewa"]) for key, g in groups.items() if "eewa" in g)
        pairs = [(e, wl.direct_scalars(key.twin("cilk"))) for key, e in itertools.islice(eewa, TWINS)]
    return (
        _geomean([e["total_joules"] / c["total_joules"] for e, c in pairs]),
        _geomean([e["total_time"] / c["total_time"] for e, c in pairs]),
    )


def _check(records: list[Any], wl: Any, max_error: float) -> tuple[set[int], float]:
    """Re-run every ``CHECK_EVERY``-th cell directly; returns the ids of
    records that failed (at run time or here) and the largest model error."""
    failed = {id(r) for r in records if r.scalars is None}
    references: dict[Any, dict[str, Any]] = {}
    worst = 0.0
    for record in records[::CHECK_EVERY]:
        if record.scalars is None:
            continue
        ref = references.get(record.cell)
        if ref is None:
            ref = references[record.cell] = wl.direct_scalars(record.cell)
        if record.source == "model":
            error = max(
                abs(record.scalars[k] - ref[k]) / abs(ref[k])
                for k in ("total_time", "total_joules")
            )
            worst = max(worst, error)
            bad = error > max_error
        else:
            bad = record.scalars != ref
        if bad:
            failed.add(id(record))
    return failed, worst


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import trace as spans
    import workloads as wl
    from pace import Pacer, cpu_pair

    try:
        from repro.model.bounds import MAX_RELATIVE_ERROR
    except ImportError:  # the model tier is gone: nothing is served by it
        MAX_RELATIVE_ERROR = 0.02

    workload = wl.WORKLOADS[args.workload]
    name, seed = workload.name, args.seed
    wanted = max(args.min_cells, round(args.seconds * workload.rate))
    count = -(-wanted // workload.block) * workload.block
    OUT_DIR.mkdir(exist_ok=True)
    recorder = child_trace = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)
        if workload.child_process:
            child_trace = OUT_DIR / f"trace-{name}-{seed}-server.jsonl"

    work_root = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    # One CPU for this process, the other for a server child, so neither
    # migrates and the reference tasks time the CPUs the work runs on.
    load_cpu, server_cpu = cpu_pair()
    os.sched_setaffinity(0, {load_cpu})
    pacer = Pacer((load_cpu, server_cpu) if workload.child_process else (load_cpu,))
    state = None
    try:
        setup_times: list[tuple[float, float]] = []  # (wall, at reference speed)
        for rep in range(SETUP_REPS):
            rep_dir = work_root / f"setup{rep}"
            rep_dir.mkdir()
            pacer.probe()
            started = time.perf_counter()
            state = workload.setup(rep_dir, seed, child_trace, server_cpu)
            setup_wall = time.perf_counter() - started + _import_seconds()
            finished = time.perf_counter()
            pacer.probe()
            setup_times.append((setup_wall, setup_wall * pacer.scale(started, finished)))
            if rep < SETUP_REPS - 1:
                workload.teardown(state)
                state = None
        setup_wall_s = statistics.median(w for w, _ in setup_times)
        setup_s = statistics.median(s for _, s in setup_times)

        # Runs write and delete cache files by the thousand; flush what set-up
        # and earlier runs left pending, so the timed phase does not pay for it.
        os.sync()
        pacer.probe(EDGE_PROBES)
        if recorder is not None:
            recorder.active = True
        started = time.perf_counter()
        out = workload.run(state, seed, count, args.min_cells, recorder, pacer)
        ended = time.perf_counter()
        if recorder is not None:
            recorder.active = False
        pacer.probe(EDGE_PROBES)
        if not workload.child_process:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.teardown(state)
        state = None
        if workload.child_process:
            rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        entry_kb = wl.entry_kb(rep_dir / "cache")
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(work_root, ignore_errors=True)
        os.sync()  # this run's deletions are settled here, not in the next run

    records, prefix = out.records, out.prefix
    failed, max_error = _check(records, wl, MAX_RELATIVE_ERROR)
    digest = _digest(prefix)
    pinned = None
    if args.min_cells == MIN_CELLS:
        pinned = json.loads((HERE / "pinned.json").read_text()).get(str(seed), {}).get(name)
    if pinned is not None and pinned != digest:
        failed.update(id(r) for r in prefix)
    energy, runtime = _ratios(prefix, wl)
    cells = len(records)
    wall, wall_ref = pacer.elapsed(started, ended)
    latencies = [r.latency_s for r in records]
    latencies_ref = [
        r.latency_s * pacer.scale(r.done_s - r.latency_s, r.done_s) for r in records
    ]

    print(f"{name}  seed {seed}  {cells} cells in {ended - started:.2f} s  "
          f"(trace {'on' if recorder else 'off'}, closed loop, "
          f"{len(pacer.probes)} reference tasks, median {1e3 * pacer.median_probe_s():.3f} ms)")
    if recorder is None:
        # (at reference speed, wall clock, unit)
        metrics = {
            "setup_s": (setup_s, setup_wall_s, "s"),
            "cells_per_s": (cells / wall_ref, cells / wall, "cells/s"),
            "cell_ms_p50": (_quantile_ms(latencies_ref, 50), _quantile_ms(latencies, 50), "ms"),
            "cell_ms_p90": (_quantile_ms(latencies_ref, 90), _quantile_ms(latencies, 90), "ms"),
            "peak_rss_mb": (rss_mb, None, "MB"),
            "eewa_energy_vs_cilk": (energy, None, "ratio"),
            "eewa_time_vs_cilk": (runtime, None, "ratio"),
        }
        notes = {
            "eewa_energy_vs_cilk": f"paper {PAPER_ENERGY[0]:.3f}..{PAPER_ENERGY[1]:.3f}",
            "eewa_time_vs_cilk": f"paper {PAPER_TIME[0]:.3f}..{PAPER_TIME[1]:.3f}",
            "cell_ms_p90": f"{cells} samples",
        }
        print(f"  {'':<22} {'reference':>12} {'wall':>12}")
        for metric, (value, raw, unit) in metrics.items():
            raw_text = f"{raw:>12.4f}" if raw is not None else f"{'':>12}"
            print(f"  {metric:<22} {value:>12.4f} {raw_text} {unit:<8} {notes.get(metric, '')}")
        result_metrics = {m: {"value": v, "unit": u} for m, (v, _, u) in metrics.items()}
    else:
        summary = spans.load_summary(str(child_trace)) if child_trace else recorder.summary()
        trace_path = OUT_DIR / f"trace-{name}-{seed}.jsonl"
        recorder.dump(str(trace_path))
        stats = out.stats
        sim = [r for r in records if r.scalars is not None and r.source == "sim"]
        batches = sum(r.scalars["batches_executed"] for r in sim)
        scans = sum(r.stolen + r.failed_scans for r in sim)
        extras = {
            "entry_kb": entry_kb,
            "dedup_share": stats.get("deduplicated", 0) / max(1, stats.get("cells", 0)),
            "served_share": stats.get("model_cells", 0) / max(1, stats.get("cells", 0)),
            "ff_share": sum(r.batches_ff for r in sim) / batches if batches else 0.0,
            "steal_success": sum(r.stolen for r in sim) / scans if scans else 0.0,
            "max_rel_err": max_error,
            "retries": out.retries / cells,
            "coverage": summary["top_s"] / wall,
            "traced_cell_ms": 1e3 * wall_ref / cells,
        }
        result_metrics = spans.layer_metrics(summary, extras, cells)
        for metric, entry in result_metrics.items():
            print(f"  {metric:<38} {entry['value']:>12.4f} {entry['unit']}")
        print(f"  trace written to {trace_path.relative_to(ROOT)}")
    print(f"  failed_frac            {len(failed) / cells:>12.4f} ratio    "
          f"({len(failed)} of {cells})")
    verdict = "no pin" if pinned is None else ("match" if pinned == digest else "MISMATCH")
    print(f"  digest {digest} ({verdict})")
    correct = not failed
    print(json.dumps({
        "correct": correct, "attempted": cells, "failed": len(failed),
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


def run_suite(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own process; optional traced twin runs."""
    ok = True
    overhead: dict[str, list[float]] = {}
    for run in range(args.runs):
        seed = args.seed + run
        for name in names:
            per_trace: dict[int, dict[str, Any]] = {}
            for traced in ([0, 1] if args.trace else [0]):
                command = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(traced), "--min-cells", str(args.min_cells),
                ]
                proc = subprocess.run(command, capture_output=True, text=True)
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    sys.stderr.write(proc.stderr)
                    result = None
                if proc.returncode != 0 or result is None:
                    ok = False
                if result is None:
                    continue
                per_trace[traced] = result
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps({
                            "workload": name, "seed": seed, "trace": traced, "result": result,
                        }) + "\n")
            if len(per_trace) == 2:
                untraced_ms = 1e3 / per_trace[0]["metrics"]["cells_per_s"]["value"]
                traced_ms = per_trace[1]["metrics"]["trace.cell_ms"]["value"]
                overhead.setdefault(name, []).append(traced_ms / untraced_ms)
    for name, ratios in overhead.items():
        print(f"tracing overhead {name}: traced/untraced time per cell = "
              f"{statistics.median(ratios):.2f}x")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="run length at reference speed (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-cells", type=int, default=MIN_CELLS)
    parser.add_argument("--runs", type=int, default=1, help="suite repetitions")
    parser.add_argument("--out", help="suite: append each run's result here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args, names)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
