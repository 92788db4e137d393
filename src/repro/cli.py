"""Command-line interface.

``python -m repro <command>``:

* ``list`` — registered workloads, policies, machine presets and exhibits;
* ``run`` — one benchmark under one policy, with timing/energy and traces;
* ``compare`` — one benchmark under several policies, normalised to the
  first (``--policies`` defaults to the Cilk-normalised baseline set);
* ``figure`` — regenerate one exhibit (fig1/fig6/fig7/fig8/fig9/table3,
  plus the heterogeneous extension ``fig_hetero``);
* ``run-spec`` — run a scenario JSON file
  (:class:`repro.scenario.ScenarioSpec`; the workload may be inline);
* ``bench`` — parallel cached sweep over (workload × policy × seed) cells
  (see :mod:`repro.experiments.parallel`);
* ``sweep`` — the same grid through the persistent
  :class:`~repro.experiments.sweep.SweepEngine`, streaming per-cell
  results as they complete (duplicate-heavy loads coalesce in flight);
  ``--fidelity model|auto`` serves cells from the analytic model tier;
* ``predict`` — the analytic companion model (:mod:`repro.model`) for
  one cell: O(1) makespan/energy prediction, no simulation;
* ``cache`` — result-cache maintenance: ``stats``, ``prune``
  (see :mod:`repro.experiments.cachectl`);
* ``calibrate`` — re-measure the real kernels behind the workload costs;
* ``check`` — determinism lint, invariant model checking, race detection
  (see :mod:`repro.checks`).

Every command resolves workloads, policies, and machines through the
scenario registries (:mod:`repro.scenario.registry`) and runs simulations
through one :class:`~repro.scenario.session.Session`, so a policy or
workload registered by a plugin is immediately available everywhere.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.errors import ScenarioError
from repro.experiments import (
    fig1_rows,
    format_table,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig_hetero,
    run_table3,
)
from repro.scenario.registry import (
    MACHINES,
    POLICIES,
    WORKLOADS,
    baseline_policy_names,
    workload_names,
)
from repro.scenario.session import Session
from repro.scenario.spec import MachineSpec, PolicySpec, ScenarioSpec

EXHIBITS = ("fig1", "fig6", "fig7", "fig8", "fig9", "fig_hetero", "table3")


def _add_machine_arg(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--machine", choices=MACHINES.names(), default=None, metavar="PRESET",
        help="machine preset (default: opteron-8380; see `repro list`)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EEWA (IPDPS 2014) reproduction: simulate, compare, regenerate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, policies, machines and exhibits")

    run = sub.add_parser("run", help="run one benchmark under one policy")
    run.add_argument("benchmark", choices=workload_names())
    run.add_argument("policy", choices=POLICIES.names())
    run.add_argument("--batches", type=int, default=None)
    run.add_argument(
        "--cores", type=int, default=None,
        help="core count override (default: the preset's own default)",
    )
    run.add_argument("--seed", type=int, default=11)
    _add_machine_arg(run)
    run.add_argument(
        "--core-levels", nargs="+", type=int, metavar="LEVEL",
        help="fixed per-core frequency levels (policies like wats need one; "
        "derived from EEWA's modal configuration when omitted)",
    )
    run.add_argument("--trace", action="store_true", help="print per-batch traces")
    run.add_argument(
        "--per-socket-dvfs", action="store_true",
        help="quad-core shared frequency planes (the physical Opteron 8380)",
    )
    run.add_argument("--json", metavar="PATH", help="write a JSON result summary")
    run.add_argument("--csv", metavar="PATH", help="write per-batch metrics as CSV")
    run.add_argument(
        "--thermal", action="store_true",
        help="record power traces and print a thermal-headroom report",
    )
    run.add_argument(
        "--faults", metavar="PATH",
        help="fault-injection spec JSON (see repro.faults.FaultSpec)",
    )

    cmp_ = sub.add_parser("compare", help="one benchmark under several policies")
    cmp_.add_argument("benchmark", choices=workload_names())
    cmp_.add_argument(
        "--policies", nargs="+", choices=POLICIES.names(), metavar="POLICY",
        default=list(baseline_policy_names()),
        help="policies to compare, normalised to the first "
        "(default: the Cilk-normalised baseline set)",
    )
    cmp_.add_argument(
        "--core-levels", nargs="+", type=int, metavar="LEVEL",
        help="fixed per-core levels for policies that need them "
        "(default: EEWA's modal configuration, Fig. 7 style)",
    )
    cmp_.add_argument("--batches", type=int, default=None)
    cmp_.add_argument(
        "--cores", type=int, default=None,
        help="core count override (default: the preset's own default)",
    )
    cmp_.add_argument("--seed", type=int, default=11)
    _add_machine_arg(cmp_)
    cmp_.add_argument(
        "--faults", metavar="PATH",
        help="fault-injection spec JSON applied to every policy",
    )

    fig = sub.add_parser("figure", help="regenerate one paper exhibit")
    fig.add_argument("exhibit", choices=EXHIBITS)
    fig.add_argument("--seed", type=int, default=11)

    spec = sub.add_parser(
        "run-spec",
        help="run a scenario JSON file (workload/policy/machine/seeds)",
    )
    spec.add_argument(
        "spec_file",
        help="path to a scenario JSON; its workload is a registered name "
        "or an inline workload object",
    )
    spec.add_argument(
        "policy", nargs="?", choices=POLICIES.names(),
        help="policy to run instead of the scenario's",
    )
    spec.add_argument("--batches", type=int, default=None)
    spec.add_argument("--cores", type=int, default=None)
    spec.add_argument("--seed", type=int, default=None)
    spec.add_argument("--diagnose", action="store_true",
                      help="print the static workload diagnostics first")

    bench = sub.add_parser(
        "bench",
        help="parallel cached sweep over (workload × policy × seed) cells",
    )
    bench.add_argument(
        "--benchmarks", nargs="+", default=list(workload_names(table2_only=True)),
        choices=workload_names(), metavar="NAME",
    )
    bench.add_argument(
        "--policies", nargs="+", default=list(baseline_policy_names()),
        choices=POLICIES.names(), metavar="POLICY",
    )
    bench.add_argument("--seeds", nargs="+", type=int, default=[11, 23, 37])
    bench.add_argument("--batches", type=int, default=None)
    bench.add_argument("--cores", type=int, default=None)
    _add_machine_arg(bench)
    bench.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: cpu count; 0/1 runs in-process)",
    )
    bench.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache root (default: .repro-cache)",
    )
    bench.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    bench.add_argument(
        "--no-fast-forward", action="store_true",
        help="disable steady-state fast-forward (full event-by-event simulation)",
    )
    bench.add_argument("--json", metavar="PATH", help="write sweep results as JSON")
    bench.add_argument(
        "--faults", metavar="PATH",
        help="fault-injection spec JSON; runs each cell fault-free AND "
        "faulted and prints a resilience (degradation) report",
    )

    sweep = sub.add_parser(
        "sweep",
        help="streaming sweep through the persistent work-queue engine",
    )
    sweep.add_argument(
        "--benchmarks", nargs="+", default=list(workload_names(table2_only=True)),
        choices=workload_names(), metavar="NAME",
    )
    sweep.add_argument(
        "--policies", nargs="+", default=list(baseline_policy_names()),
        choices=POLICIES.names(), metavar="POLICY",
    )
    sweep.add_argument("--seeds", nargs="+", type=int, default=[11, 23, 37])
    sweep.add_argument("--batches", type=int, default=None)
    sweep.add_argument("--cores", type=int, default=None)
    _add_machine_arg(sweep)
    sweep.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="submit the whole grid N times (duplicates coalesce in flight "
        "or hit the cache — a dedup demonstration and load generator)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker process count (default: cpu count; 0/1 runs in-process)",
    )
    sweep.add_argument("--cache-dir", default=".repro-cache")
    sweep.add_argument("--no-cache", action="store_true")
    sweep.add_argument("--no-fast-forward", action="store_true")
    sweep.add_argument(
        "--chunk-target", type=float, default=0.25, metavar="SECONDS",
        help="per-IPC-round-trip budget for the adaptive chunk sizer",
    )
    sweep.add_argument(
        "--max-pending", type=int, default=10_000,
        help="backpressure bound on queued-but-undispatched cells",
    )
    sweep.add_argument(
        "--fidelity", choices=("sim", "model", "auto"), default="sim",
        help="cell fidelity: sim simulates everything (default); model "
        "forces the analytic predictor wherever expressible; auto serves "
        "model-eligible cells from the predictor and simulates the rest",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-cell streaming lines (summary only)",
    )
    sweep.add_argument("--json", metavar="PATH", help="write sweep results as JSON")
    sweep.add_argument(
        "--remote", metavar="URL", default=None,
        help="stream the sweep through a running 'repro serve' instance "
        "(http://host:port or unix:/path.sock) instead of a local engine",
    )

    srv = sub.add_parser(
        "serve",
        help="serve streaming sweeps over HTTP (one shared engine, many clients)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 8377; 0 binds an ephemeral port)",
    )
    srv.add_argument(
        "--unix-socket", metavar="PATH", default=None,
        help="serve on a unix domain socket instead of TCP",
    )
    srv.add_argument(
        "--workers", type=int, default=0,
        help="engine worker processes (default 0: in-process, deterministic)",
    )
    srv.add_argument("--cache-dir", default=".repro-cache")
    srv.add_argument("--no-cache", action="store_true")
    srv.add_argument("--no-fast-forward", action="store_true")
    srv.add_argument(
        "--fidelity", choices=("sim", "model", "auto"), default="sim",
        help="default cell fidelity for requests that don't pick their own",
    )
    srv.add_argument(
        "--max-pending", type=int, default=None,
        help="admission bound on queued cells (full queue answers HTTP 429)",
    )
    srv.add_argument(
        "--verbose", action="store_true",
        help="log each request to stderr (default: quiet)",
    )

    predict = sub.add_parser(
        "predict",
        help="O(1) analytic model prediction for one cell (no simulation)",
    )
    predict.add_argument("benchmark", choices=workload_names())
    predict.add_argument("policy", choices=POLICIES.names())
    predict.add_argument("--batches", type=int, default=None)
    predict.add_argument(
        "--cores", type=int, default=None,
        help="core count override (default: the preset's own default)",
    )
    predict.add_argument("--seed", type=int, default=11)
    _add_machine_arg(predict)
    predict.add_argument(
        "--core-levels", nargs="+", type=int, metavar="LEVEL",
        help="fixed per-core frequency levels (pinned-cilk prediction)",
    )
    predict.add_argument(
        "--compare", action="store_true",
        help="also run the simulator and report the model's relative error",
    )

    cache = sub.add_parser(
        "cache", help="result-cache maintenance (stats, prune)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats_p = cache_sub.add_parser(
        "stats", help="entry/byte counts and shard distribution"
    )
    cache_stats_p.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of the text summary",
    )
    cache_prune_p = cache_sub.add_parser(
        "prune", help="evict old and/or excess entries (oldest first)"
    )
    cache_prune_p.add_argument(
        "--max-age-days", type=float, default=None,
        help="evict entries older than this many days",
    )
    cache_prune_p.add_argument(
        "--max-bytes", type=int, default=None,
        help="evict oldest entries until the cache fits this many bytes",
    )
    for sub_p in (cache_stats_p, cache_prune_p):
        sub_p.add_argument("--cache-dir", default=".repro-cache")

    cal = sub.add_parser("calibrate", help="re-measure real kernel costs")
    cal.add_argument("--repeats", type=int, default=3)

    # Registered only so ``repro --help`` lists it; ``main`` hands the whole
    # argv tail to the checks runner before this parser ever sees it.
    sub.add_parser(
        "check",
        add_help=False,
        help="determinism lint, invariant model checking, race detection",
    )

    return parser


def _cmd_list() -> int:
    print("benchmarks (paper Table II):", ", ".join(workload_names(table2_only=True)))
    extras = [n for n in workload_names() if n not in workload_names(table2_only=True)]
    print("extra workloads:", ", ".join(extras))
    print("policies:")
    for entry in POLICIES:
        needs = " [needs --core-levels]" if entry.needs_core_levels else ""
        print(f"  {entry.name:8s}{needs} — {entry.description}")
    print("machine presets:")
    for preset in MACHINES:
        print(f"  {preset.name:20s} — {preset.description}")
    print("exhibits:", ", ".join(EXHIBITS))
    print("checks: repro check [--strict] (lint EEWA0xx, invariants EEWA1xx, races EEWA2xx)")
    return 0


def _machine_spec(
    cores: Optional[int],
    *,
    preset: Optional[str] = None,
    per_socket_dvfs: bool = False,
) -> MachineSpec:
    if per_socket_dvfs:
        if preset not in (None, "opteron-8380"):
            raise ScenarioError(
                "--per-socket-dvfs applies to the opteron-8380 preset only"
            )
        preset = "opteron-8380-socket"
    return MachineSpec(preset=preset or "opteron-8380", num_cores=cores)


def _load_faults(path: Optional[str]):
    """Load a fault spec from ``--faults PATH`` (``None`` passes through)."""
    if path is None:
        return None
    from repro.faults.spec import FaultSpec

    return FaultSpec.load(path)


def _resolve_levels(
    session: Session, scenario: ScenarioSpec, explicit: Optional[Sequence[int]]
) -> ScenarioSpec:
    """Fill in fixed core levels for policies that require them.

    Without ``--core-levels``, uses EEWA's modal configuration for the
    scenario's workload (the Fig. 7 convention) and says so.
    """
    entry = POLICIES.get(scenario.policy.name)
    if explicit is not None:
        if not (entry.needs_core_levels or entry.accepts_core_levels):
            raise ScenarioError(
                f"{entry.name} does not take fixed core levels"
            )
        return scenario.with_policy(
            PolicySpec(scenario.policy.name, core_levels=tuple(explicit))
        )
    if not entry.needs_core_levels or scenario.policy.core_levels is not None:
        return scenario
    levels = tuple(session.modal_eewa_levels(scenario))
    print(
        f"  note: {entry.name} runs on EEWA's modal configuration "
        f"{list(levels)} (pass --core-levels to override)"
    )
    return scenario.with_policy(
        PolicySpec(scenario.policy.name, core_levels=levels)
    )


def _cmd_run(args: argparse.Namespace) -> int:
    faults = _load_faults(args.faults)
    scenario = ScenarioSpec(
        workload=args.benchmark,
        policy=args.policy,
        machine=_machine_spec(
            args.cores, preset=args.machine,
            per_socket_dvfs=args.per_socket_dvfs,
        ),
        seeds=(args.seed,),
        batches=args.batches,
        faults=faults,
    )
    with Session() as session:
        scenario = _resolve_levels(session, scenario, args.core_levels)
        result = session.run_single(scenario, record_power_series=args.thermal)
    cores = scenario.build_machine().num_cores
    print(
        f"{args.benchmark} / {args.policy} on {cores} cores: "
        f"{result.total_time*1e3:.1f} ms, {result.total_joules:.2f} J "
        f"(avg {result.average_power:.0f} W), {result.tasks_executed} tasks"
    )
    if faults is not None and faults.active:
        denied = result.policy_stats.get("dvfs_denied", 0.0)
        print(
            f"  faults active ({args.faults}): "
            f"{int(denied)} DVFS denials observed by the policy"
        )
    print(
        f"  energy breakdown: running {result.running_joules:.1f} J, "
        f"spinning {result.spin_joules:.1f} J, "
        f"baseline {result.baseline_joules:.1f} J"
    )
    if args.trace:
        print("  per-batch (duration ms | cores per level):")
        for bt in result.trace.batches:
            print(
                f"    batch {bt.batch_index:3d}: {bt.duration*1e3:8.2f} | "
                f"{bt.level_histogram}"
            )
    if args.thermal:
        from repro.analysis.thermal import thermal_report

        report = thermal_report(result)
        print(
            f"  thermal: peak {report.peak_c:.1f} C "
            f"(throttle at {report.params.throttle_c:.0f} C, "
            f"{report.total_throttle_seconds*1e3:.1f} ms above)"
        )
    if args.json:
        from repro.sim.export import result_to_json

        with open(args.json, "w") as fh:
            fh.write(result_to_json(result))
        print(f"  wrote {args.json}")
    if args.csv:
        from repro.sim.export import batches_to_csv

        with open(args.csv, "w") as fh:
            fh.write(batches_to_csv(result))
        print(f"  wrote {args.csv}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    machine = _machine_spec(args.cores, preset=args.machine)
    cores = machine.build().num_cores
    faults = _load_faults(args.faults)
    with Session() as session:
        scenarios = [
            _resolve_levels(
                session,
                ScenarioSpec(
                    workload=args.benchmark, policy=name, machine=machine,
                    seeds=(args.seed,), batches=args.batches, faults=faults,
                ),
                args.core_levels if POLICIES.get(name).needs_core_levels else None,
            )
            for name in args.policies
        ]
        outcomes = session.run_grid(scenarios)
    base = outcomes[0]
    rows = [
        (
            o.policy,
            o.time_mean * 1e3,
            o.energy_mean,
            o.time_mean / base.time_mean,
            o.energy_mean / base.energy_mean,
        )
        for o in outcomes
    ]
    suffix = f", faults: {args.faults}" if faults is not None else ""
    print(
        format_table(
            ["policy", "time (ms)", "energy (J)", f"t/{base.policy}", f"E/{base.policy}"],
            rows,
            title=f"{args.benchmark} on {cores} cores (seed {args.seed}{suffix})",
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    seeds = (args.seed,)
    if args.exhibit == "fig1":
        print(
            format_table(
                ["schedule", "time (s)", "energy (J)"],
                fig1_rows(0.1),
                title="Fig. 1 — four dual-core schedules + simulated EEWA",
            )
        )
    elif args.exhibit == "fig6":
        print(run_fig6(seeds=seeds).table())
    elif args.exhibit == "fig7":
        print(run_fig7(seeds=seeds).table())
    elif args.exhibit == "fig8":
        print(run_fig8(seed=args.seed).table())
    elif args.exhibit == "fig9":
        print(run_fig9(seeds=seeds).table())
    elif args.exhibit == "fig_hetero":
        print(run_fig_hetero(seeds=seeds).table())
    elif args.exhibit == "table3":
        print(run_table3(seed=args.seed).table())
    return 0


def _load_run_spec_scenario(args: argparse.Namespace) -> ScenarioSpec:
    """Build the scenario for ``run-spec``: the scenario JSON plus overrides."""
    import json
    from dataclasses import replace as _replace

    try:
        with open(args.spec_file) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {args.spec_file}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{args.spec_file}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{args.spec_file}: expected a JSON object")

    # Overrides go through dataclasses.replace so every field the
    # override does not touch (notably ``faults``) is preserved.
    scenario = ScenarioSpec.from_dict(data)
    if args.policy is not None:
        scenario = scenario.with_policy(args.policy)
    if args.cores is not None:
        scenario = _replace(
            scenario,
            machine=MachineSpec(
                preset=scenario.machine.preset, num_cores=args.cores
            ),
        )
    if args.seed is not None:
        scenario = scenario.with_seeds((args.seed,))
    if args.batches is not None:
        scenario = _replace(scenario, batches=args.batches)
    return scenario


def _cmd_run_spec(args: argparse.Namespace) -> int:
    from repro.workloads.validation import diagnose

    scenario = _load_run_spec_scenario(args)
    with Session() as session:
        scenario = _resolve_levels(session, scenario, None)
        cores = scenario.build_machine().num_cores
        if args.diagnose:
            print(diagnose(scenario.resolve_workload(), cores).summary())
            print()
        outcome = session.run(scenario)
    result = outcome.first
    seeds = list(scenario.seeds)
    suffix = f" (mean over seeds {seeds})" if len(seeds) > 1 else ""
    print(
        f"{scenario.workload_name} / {scenario.policy.name} on {cores} cores: "
        f"{outcome.time_mean*1e3:.1f} ms, {outcome.energy_mean:.2f} J, "
        f"{result.tasks_executed} tasks{suffix}"
    )
    for bt in result.trace.batches:
        print(f"  batch {bt.batch_index:3d}: {bt.duration*1e3:8.2f} ms | "
              f"{bt.level_histogram}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    session = Session(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        fast_forward=not args.no_fast_forward,
    )
    with session:
        machine = _machine_spec(args.cores, preset=args.machine)
        cores = machine.build().num_cores
        faults = _load_faults(args.faults)
        scenarios = [
            _resolve_levels(
                session,
                ScenarioSpec(
                    workload=name, policy=policy, machine=machine,
                    seeds=tuple(args.seeds), batches=args.batches,
                ),
                None,
            )
            for name in args.benchmarks
            for policy in args.policies
        ]
        # With --faults, the faulted twins ride in the SAME fan-out as the
        # fault-free baselines, so the pool and cache see one sweep.
        faulted_scenarios = (
            [s.with_faults(faults) for s in scenarios] if faults is not None else []
        )
        started = time.perf_counter()
        all_outcomes = session.run_grid(scenarios + faulted_scenarios)
        outcomes = all_outcomes[: len(scenarios)]
        faulted = all_outcomes[len(scenarios):]
        wall = time.perf_counter() - started
        rows = [
            (
                o.benchmark,
                o.policy,
                o.time_mean * 1e3,
                o.energy_mean,
            )
            for o in outcomes
        ]
        print(
            format_table(
                ["benchmark", "policy", "time (ms)", "energy (J)"],
                rows,
                title=(
                    f"bench sweep — {len(args.benchmarks)} benchmarks x "
                    f"{len(args.policies)} policies x {len(args.seeds)} seeds"
                ),
            )
        )
        resilience_rows = []
        if faulted:
            for clean, dirty in zip(outcomes, faulted):
                clean_tasks = sum(r.tasks_executed for r in clean.results)
                dirty_tasks = sum(r.tasks_executed for r in dirty.results)
                resilience_rows.append(
                    (
                        clean.benchmark,
                        clean.policy,
                        "ok" if dirty_tasks == clean_tasks else
                        f"LOST {clean_tasks - dirty_tasks}",
                        dirty.time_mean / clean.time_mean,
                        dirty.energy_mean / clean.energy_mean,
                    )
                )
            print()
            print(
                format_table(
                    ["benchmark", "policy", "tasks", "time x", "energy x"],
                    resilience_rows,
                    title=f"resilience report — degradation under {args.faults}",
                    float_fmt="{:.3f}",
                )
            )
        stats = session.stats
        simulated = sum(r.batches_simulated for o in outcomes for r in o.results)
        fast_forwarded = sum(
            r.batches_fast_forwarded for o in outcomes for r in o.results
        )
        print(
            f"  {stats.cells} cells in {wall:.2f} s: {stats.executed} simulated, "
            f"{stats.cache_hits} from cache, {stats.deduplicated} deduplicated"
        )
        print(
            f"  batches: {simulated} simulated, {fast_forwarded} fast-forwarded"
        )
        if args.json:
            import json
            import os as _os
            import platform

            payload = {
                "machine_cores": cores,
                "seeds": list(args.seeds),
                "wall_seconds": wall,
                "fast_forward": not args.no_fast_forward,
                "machine_info": {
                    "cpu_count": _os.cpu_count(),
                    "python": platform.python_version(),
                },
                "stats": {
                    "cells": stats.cells,
                    "executed": stats.executed,
                    "cache_hits": stats.cache_hits,
                    "deduplicated": stats.deduplicated,
                    "batches_simulated": simulated,
                    "batches_fast_forwarded": fast_forwarded,
                },
                "cells": [
                    {
                        "benchmark": o.benchmark,
                        "policy": o.policy,
                        "time_mean_s": o.time_mean,
                        "energy_mean_j": o.energy_mean,
                        "per_seed": [
                            {
                                "total_time": r.total_time,
                                "total_joules": r.total_joules,
                                "tasks_executed": r.tasks_executed,
                                "batches_simulated": r.batches_simulated,
                                "batches_fast_forwarded": r.batches_fast_forwarded,
                            }
                            for r in o.results
                        ],
                    }
                    for o in outcomes
                ],
            }
            if faulted:
                payload["faults"] = faults.to_dict()
                payload["resilience"] = [
                    {
                        "benchmark": benchmark,
                        "policy": policy,
                        "completed": status == "ok",
                        "time_ratio": time_ratio,
                        "energy_ratio": energy_ratio,
                    }
                    for benchmark, policy, status, time_ratio, energy_ratio
                    in resilience_rows
                ]
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"  wrote {args.json}")
        return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    if args.remote is not None:
        return _cmd_sweep_remote(args)
    session = Session(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        fast_forward=not args.no_fast_forward,
        fidelity=args.fidelity,
    )
    with session:
        engine = session.engine.configure(
            chunk_target_seconds=args.chunk_target, max_pending=args.max_pending
        )
        machine = _machine_spec(args.cores, preset=args.machine)
        cores = machine.build().num_cores
        scenarios = [
            _resolve_levels(
                session,
                ScenarioSpec(
                    workload=name, policy=policy, machine=machine,
                    seeds=tuple(args.seeds), batches=args.batches,
                ),
                None,
            )
            for name in args.benchmarks
            for policy in args.policies
        ]
        from repro.experiments.parallel import CellSpec

        cells = [
            CellSpec.from_scenario(scenario, seed)
            for _ in range(args.repeat)
            for scenario in scenarios
            for seed in scenario.seeds
        ]
        started = time.perf_counter()
        tickets = engine.submit_many(cells)
        submitted = time.perf_counter() - started
        streamed = []
        for ticket in engine.as_completed(tickets):
            outcome = ticket.result()
            latency = time.perf_counter() - started
            streamed.append((ticket, outcome, latency))
            if not args.quiet:
                spec = ticket.spec
                if outcome.source == "model":
                    source = "model cached" if outcome.from_cache else "model"
                else:
                    source = "cached" if outcome.from_cache else "simulated"
                print(
                    f"  done {spec.benchmark}/{spec.policy} seed {spec.seed}: "
                    f"{outcome.result.total_time*1e3:.1f} ms sim, "
                    f"{outcome.result.total_joules:.2f} J [{source}]"
                )
        wall = time.perf_counter() - started
        stats = engine.stats
        dedup_rate = stats.deduplicated / stats.cells if stats.cells else 0.0
        print(
            f"  {stats.cells} submissions in {wall:.2f} s "
            f"({stats.cells / wall:.0f}/s): {stats.executed} simulated in "
            f"{stats.chunks} chunks, {stats.model_cells} model-predicted, "
            f"{stats.cache_hits} from cache "
            f"({stats.memo_hits} memo), {stats.deduplicated} coalesced in flight "
            f"(dedup rate {dedup_rate:.1%}), {stats.cancelled} cancelled"
        )
        if args.json:
            import json

            latencies = sorted(lat for _, _, lat in streamed)

            def _pct(p: float) -> float:
                if not latencies:
                    return 0.0
                idx = min(len(latencies) - 1, int(p * (len(latencies) - 1)))
                return latencies[idx]

            payload = {
                "machine_cores": cores,
                "seeds": list(args.seeds),
                "repeat": args.repeat,
                "wall_seconds": wall,
                "submit_seconds": submitted,
                "fast_forward": not args.no_fast_forward,
                "fidelity": args.fidelity,
                "stats": {
                    "submissions": stats.cells,
                    "executed": stats.executed,
                    "model_cells": stats.model_cells,
                    "cache_hits": stats.cache_hits,
                    "memo_hits": stats.memo_hits,
                    "deduplicated": stats.deduplicated,
                    "cancelled": stats.cancelled,
                    "chunks": stats.chunks,
                    "dedup_hit_rate": dedup_rate,
                    "throughput_per_sec": stats.cells / wall if wall > 0 else 0.0,
                    "latency_p50_s": _pct(0.50),
                    "latency_p99_s": _pct(0.99),
                },
                "cells": [
                    {
                        "benchmark": t.spec.benchmark,
                        "policy": t.spec.policy,
                        "seed": t.spec.seed,
                        "from_cache": o.from_cache,
                        "source": o.source,
                        "total_time": o.result.total_time,
                        "total_joules": o.result.total_joules,
                        "latency_s": lat,
                    }
                    for t, o, lat in streamed
                ],
            }
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"  wrote {args.json}")
        return 0


def _cmd_sweep_remote(args: argparse.Namespace) -> int:
    """``repro sweep --remote URL``: same grid, streamed through a server.

    Core-level resolution for policies that need it happens server-side
    (the server owns the shared engine and its cache), so the scenarios
    ship as written.
    """
    import time

    from repro.service.client import ServiceError, SweepServiceClient

    machine = _machine_spec(args.cores, preset=args.machine)
    scenarios = [
        ScenarioSpec(
            workload=name, policy=policy, machine=machine,
            seeds=tuple(args.seeds), batches=args.batches,
        )
        for _ in range(args.repeat)
        for name in args.benchmarks
        for policy in args.policies
    ]
    client = SweepServiceClient(args.remote)
    started = time.perf_counter()
    frames: list[tuple[dict, float]] = []
    terminal: Optional[dict] = None
    try:
        for frame in client.stream(scenarios, fidelity=args.fidelity):
            if frame["frame"] != "cell":
                terminal = frame
                break
            latency = time.perf_counter() - started
            frames.append((frame, latency))
            if not args.quiet:
                if frame["source"] == "model":
                    source = "model cached" if frame["from_cache"] else "model"
                else:
                    source = "cached" if frame["from_cache"] else "simulated"
                print(
                    f"  done {frame['benchmark']}/{frame['policy']} "
                    f"seed {frame['seed']}: "
                    f"{frame['result']['total_time_s']*1e3:.1f} ms sim, "
                    f"{frame['result']['total_joules']:.2f} J [{source}]"
                )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started
    if terminal is None or terminal["frame"] == "error":
        detail = "" if terminal is None else terminal.get("detail", "")
        code = "disconnect" if terminal is None else terminal.get("code")
        print(
            f"error: stream ended after {len(frames)} cells "
            f"({code}): {detail}",
            file=sys.stderr,
        )
        return 1
    rate = terminal["streamed"] / wall if wall > 0 else 0.0
    sources = ", ".join(
        f"{count} {name}" for name, count in sorted(terminal["sources"].items())
    )
    print(
        f"  {terminal['cells']} cells streamed from {args.remote} in "
        f"{wall:.2f} s ({rate:.0f}/s): {terminal['from_cache']} from cache "
        f"({sources})"
    )
    if args.json:
        import json

        payload = {
            "remote": args.remote,
            "seeds": list(args.seeds),
            "repeat": args.repeat,
            "wall_seconds": wall,
            "fidelity": args.fidelity,
            "summary": {k: v for k, v in terminal.items() if k != "frame"},
            "cells": [
                {
                    "benchmark": f["benchmark"],
                    "policy": f["policy"],
                    "seed": f["seed"],
                    "from_cache": f["from_cache"],
                    "source": f["source"],
                    "total_time": f["result"]["total_time_s"],
                    "total_joules": f["result"]["total_joules"],
                    "latency_s": lat,
                }
                for f, lat in frames
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"  wrote {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import DEFAULT_PORT, serve

    server = serve(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        unix_socket=args.unix_socket,
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        fast_forward=not args.no_fast_forward,
        fidelity=args.fidelity,
        max_pending=args.max_pending,
        verbose=args.verbose,
    )
    if args.unix_socket is not None:
        where = f"unix:{args.unix_socket}"
    else:
        where = f"http://{args.host}:{server.server_port}"
    print(f"serving sweeps on {where} (Ctrl-C to drain and stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupt: draining in-flight streams...")
    finally:
        for line in server.drain_and_close(call_shutdown=False):
            print(f"  shutdown: {line}", file=sys.stderr)
    print("server closed")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.model import MAX_RELATIVE_ERROR, classify_cell, predict_cell

    scenario = ScenarioSpec(
        workload=args.benchmark,
        policy=PolicySpec(
            args.policy,
            core_levels=(
                None if args.core_levels is None else tuple(args.core_levels)
            ),
        ),
        machine=_machine_spec(args.cores, preset=args.machine),
        seeds=(args.seed,),
        batches=args.batches,
    )
    machine = scenario.build_machine()
    program = tuple(scenario.program(args.seed))
    verdict = classify_cell(
        program, args.policy, machine,
        core_levels=scenario.policy.core_levels,
    )
    result = predict_cell(
        program, args.policy, machine, args.seed,
        core_levels=scenario.policy.core_levels,
    )
    if result is None:
        reason = verdict.reason or "seed-dependent (rotation-sensitive) schedule"
        print(f"{args.benchmark} / {args.policy}: no analytic form — {reason}")
        return 2
    print(
        f"{args.benchmark} / {args.policy} on {machine.num_cores} cores "
        f"(model): {result.total_time*1e3:.1f} ms, "
        f"{result.total_joules:.2f} J (avg {result.average_power:.0f} W), "
        f"{result.tasks_executed} tasks"
    )
    print(
        f"  energy breakdown: running {result.running_joules:.1f} J, "
        f"spinning {result.spin_joules:.1f} J, "
        f"baseline {result.baseline_joules:.1f} J"
    )
    if verdict.eligible:
        print(
            f"  within the calibrated envelope "
            f"(error bound {MAX_RELATIVE_ERROR:.0%})"
        )
    else:
        print(f"  outside the calibrated envelope: {verdict.reason}")
    if args.compare:
        with Session() as session:
            sim = session.run_single(scenario)
        time_err = abs(result.total_time - sim.total_time) / sim.total_time
        joule_err = abs(result.total_joules - sim.total_joules) / sim.total_joules
        print(
            f"  simulator: {sim.total_time*1e3:.1f} ms, "
            f"{sim.total_joules:.2f} J — relative error "
            f"{time_err:.4%} time, {joule_err:.4%} energy"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments import cachectl

    if args.cache_command == "stats":
        stats = cachectl.cache_stats(args.cache_dir)
        if args.json:
            import dataclasses
            import json

            print(json.dumps(dataclasses.asdict(stats), indent=2, sort_keys=True))
        else:
            print(stats.summary())
        return 0
    if args.max_age_days is None and args.max_bytes is None:
        raise ScenarioError("cache prune needs --max-age-days and/or --max-bytes")
    # ``not >= 0`` also rejects NaN, which every comparison fails.
    if args.max_age_days is not None and not args.max_age_days >= 0:
        raise ScenarioError(
            f"--max-age-days must be >= 0, got {args.max_age_days}"
        )
    if args.max_bytes is not None and args.max_bytes < 0:
        raise ScenarioError(f"--max-bytes must be >= 0, got {args.max_bytes}")
    result = cachectl.prune(
        args.cache_dir,
        max_age_days=args.max_age_days,
        max_bytes=args.max_bytes,
    )
    print(result.summary())
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.kernels.profile import REFERENCE_COSTS, measure_kernel_costs

    costs = measure_kernel_costs(repeats=args.repeats)
    rows = [
        (bench, cls, costs[(bench, cls)] * 1e3, REFERENCE_COSTS[(bench, cls)] * 1e3)
        for (bench, cls) in sorted(costs)
    ]
    print(
        format_table(
            ["benchmark", "stage", "measured (ms)", "frozen (ms)"],
            rows,
            title=f"kernel stage costs ({args.repeats} repeats, median)",
            float_fmt="{:.2f}",
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        from repro.checks.runner import main as check_main

        return check_main(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "run-spec":
            return _cmd_run_spec(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Sessions and servers are context-managed, so the unwind that got
        # us here already closed them; 130 = 128 + SIGINT, the shell
        # convention for death-by-Ctrl-C.
        print("interrupted", file=sys.stderr)
        return 130
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main"]
