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
* ``sweep`` — a (workload × policy × seed) grid through the persistent
  :class:`~repro.experiments.sweep.SweepEngine`, or through a running
  ``repro serve`` with ``--remote``: per-cell results stream as they
  complete (duplicate-heavy loads coalesce in flight), then a table of
  means and, with ``--faults``, a resilience report; ``--fidelity
  auto`` serves cells inside the calibrated envelope from the analytic
  model tier;
* ``predict`` — the analytic companion model (:mod:`repro.model`) for
  one cell: O(1) makespan/energy prediction, no simulation;
* ``cache`` — result-cache maintenance: ``stats``, ``prune``
  (see :mod:`repro.experiments.cachectl`);
* ``calibrate`` — re-measure the real kernels behind the workload costs;
* ``check`` — determinism lint, invariant model checking, race detection
  (see :mod:`repro.checks`).

Every command resolves workloads, policies, and machines through the
scenario registries (:mod:`repro.scenario.registry`) and runs simulations
on one :class:`~repro.experiments.sweep.SweepEngine`, so a policy or
workload registered by a plugin is immediately available everywhere.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, Sequence, Union

from repro.errors import ConfigurationError, ScenarioError
from repro.experiments import (
    SweepStats,
    fig1_rows,
    format_table,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig_hetero,
    run_table3,
)
from repro.experiments.sweep import FIDELITIES, MAX_PENDING, SweepEngine
from repro.scenario.registry import (
    MACHINES,
    POLICIES,
    baseline_policy_names,
    workload_names,
)
from repro.scenario.spec import MachineSpec, PolicySpec, ScenarioSpec

#: Exhibit name -> the text ``repro figure NAME --seed SEED`` prints.
EXHIBITS: dict[str, Callable[[int], str]] = {
    "fig1": lambda seed: format_table(
        ["schedule", "time (s)", "energy (J)"],
        fig1_rows(0.1),
        title="Fig. 1 — four dual-core schedules + simulated EEWA",
    ),
    "fig6": lambda seed: run_fig6(seeds=(seed,)).table(),
    "fig7": lambda seed: run_fig7(seeds=(seed,)).table(),
    "fig8": lambda seed: run_fig8(seed=seed).table(),
    "fig9": lambda seed: run_fig9(seeds=(seed,)).table(),
    "fig_hetero": lambda seed: run_fig_hetero(seeds=(seed,)).table(),
    "table3": lambda seed: run_table3(seed=seed).table(),
}


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

    sweep = sub.add_parser(
        "sweep",
        help="streaming (workload × policy × seed) sweep, local or remote",
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
    sweep.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache root (default: .repro-cache)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sweep.add_argument(
        "--no-fast-forward", action="store_true",
        help="disable steady-state fast-forward (full event-by-event simulation)",
    )
    sweep.add_argument(
        "--faults", metavar="PATH",
        help="fault-injection spec JSON; runs each cell fault-free AND "
        "faulted and prints a resilience (degradation) report",
    )
    sweep.add_argument(
        "--fidelity", choices=FIDELITIES, default="sim",
        help="cell fidelity: sim simulates everything (default); auto "
        "serves cells inside the calibrated envelope from the analytic "
        "predictor and simulates the rest",
    )
    sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-cell streaming lines (summary only)",
    )
    sweep.add_argument("--json", metavar="PATH", help="write sweep results as JSON")
    sweep.add_argument(
        "--remote", metavar="URL", default=None,
        help="stream the sweep through a running 'repro serve' instance "
        "(http://host:port or unix:/path.sock) instead of a local engine; "
        "the server's own workers, cache and fast-forward setting apply",
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
        "--fidelity", choices=FIDELITIES, default="sim",
        help="default cell fidelity for requests that don't pick their own",
    )
    srv.add_argument(
        "--max-pending", type=int, default=MAX_PENDING,
        help="the engine's bound on queued cells: a request that would "
        "overfill it answers HTTP 429 (default %(default)s)",
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


def _scenario(
    args: argparse.Namespace, policy: Union[str, PolicySpec]
) -> ScenarioSpec:
    """The one-seed scenario that the flags of ``run``, ``compare`` and
    ``predict`` describe, under ``policy``.

    ``--per-socket-dvfs`` and ``--faults`` are read when the command has
    them.
    """
    faults = _load_faults(getattr(args, "faults", None))
    return ScenarioSpec(
        workload=args.benchmark,
        policy=policy,
        machine=_machine_spec(
            args.cores, preset=args.machine,
            per_socket_dvfs=getattr(args, "per_socket_dvfs", False),
        ),
        seeds=(args.seed,),
        batches=args.batches,
        faults=faults,
    )


def _resolve_levels(
    engine: SweepEngine, scenario: ScenarioSpec, explicit: Optional[Sequence[int]]
) -> ScenarioSpec:
    """Fill in fixed core levels for policies that require them.

    ``--core-levels`` wins. Without it, the service's rule
    (:func:`repro.service.server.resolve_scenario`) runs the policy on
    EEWA's modal configuration for the scenario's workload (the Fig. 7
    convention), and the CLI says so.
    """
    from repro.service.server import resolve_scenario

    if explicit is not None:
        entry = POLICIES.get(scenario.policy.name)
        if not (entry.needs_core_levels or entry.accepts_core_levels):
            raise ScenarioError(
                f"{entry.name} does not take fixed core levels"
            )
        return scenario.with_policy(
            PolicySpec(scenario.policy.name, core_levels=tuple(explicit))
        )
    resolved = resolve_scenario(engine, scenario)
    if resolved is not scenario:
        print(
            f"  note: {scenario.policy.name} runs on EEWA's modal configuration "
            f"{list(resolved.policy.core_levels)} (pass --core-levels to override)"
        )
    return resolved


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario(args, args.policy)
    faults = scenario.faults
    with SweepEngine() as engine:
        scenario = _resolve_levels(engine, scenario, args.core_levels)
        result = engine.run_single(scenario, record_power_series=args.thermal)
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
    first = _scenario(args, args.policies[0])
    cores = first.build_machine().num_cores
    with SweepEngine() as engine:
        scenarios = [
            _resolve_levels(
                engine,
                first.with_policy(name),
                args.core_levels if POLICIES.get(name).needs_core_levels else None,
            )
            for name in args.policies
        ]
        outcomes = engine.run_grid(scenarios)
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
    suffix = f", faults: {args.faults}" if first.faults is not None else ""
    print(
        format_table(
            ["policy", "time (ms)", "energy (J)", f"t/{base.policy}", f"E/{base.policy}"],
            rows,
            title=f"{args.benchmark} on {cores} cores (seed {args.seed}{suffix})",
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    print(EXHIBITS[args.exhibit](args.seed))
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
    with SweepEngine() as engine:
        scenario = _resolve_levels(engine, scenario, None)
        cores = scenario.build_machine().num_cores
        if args.diagnose:
            print(diagnose(scenario.resolve_workload(), cores).summary())
            print()
        outcome = engine.run(scenario)
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


class _SweepReport:
    """The one consumer of a sweep's frames, streamed locally or remotely.

    ``grid`` is one copy of the request's scenarios: the fault-free ones
    first, then (with ``--faults``) their faulted twins. Every scenario
    carries the same seeds, so cell ``index`` belongs to scenario
    ``index // len(seeds)``. :meth:`take` prints each cell as it arrives;
    :meth:`finish` prints the tables and the closing stats and writes
    ``--json``.
    """

    def __init__(
        self, args: argparse.Namespace, grid: Sequence[ScenarioSpec], clean: int
    ) -> None:
        self.args = args
        self.grid = grid
        self.clean = clean
        self.started = time.perf_counter()
        self.wall = 0.0
        #: JSON rows, one per streamed cell, in completion order.
        self.rows: list[dict] = []
        #: Result payloads of the grid's first copy, by cell index.
        self.results: dict[int, dict] = {}
        self.terminal: Optional[dict] = None

    def take(self, frame: dict) -> None:
        self.wall = time.perf_counter() - self.started
        if frame["frame"] != "cell":
            self.terminal = frame
            return
        result = frame["result"]
        if frame["scenario"] < len(self.grid):
            self.results[frame["index"]] = result
        faulted = frame["scenario"] % len(self.grid) >= self.clean
        row = {
            "benchmark": frame["benchmark"],
            "policy": frame["policy"],
            "seed": frame["seed"],
            "from_cache": frame["from_cache"],
            "source": frame["source"],
            "total_time": result["total_time_s"],
            "total_joules": result["total_joules"],
            "latency_s": self.wall,
        }
        if self.args.faults is not None:
            row["faulted"] = faulted
        self.rows.append(row)
        if self.args.quiet:
            return
        if frame["source"] == "model":
            source = "model"
        else:
            source = "cached" if frame["from_cache"] else "simulated"
        print(
            f"  done {frame['benchmark']}/{frame['policy']} seed {frame['seed']}"
            f"{' faulted' if faulted else ''}: "
            f"{result['total_time_s']*1e3:.1f} ms sim, "
            f"{result['total_joules']:.2f} J [{source}]"
        )

    def _sum(self, scenario: int, field: str) -> float:
        per = len(self.args.seeds)
        return sum(self.results[scenario * per + i][field] for i in range(per))

    def finish(self, stats: Optional[SweepStats]) -> int:
        """Report the sweep; ``stats`` is the local engine's, ``None`` for a
        remote sweep. Returns the exit code."""
        args, terminal, per = self.args, self.terminal, len(self.args.seeds)
        if terminal is None or terminal["frame"] == "error":
            code = "disconnect" if terminal is None else terminal.get("code")
            detail = "" if terminal is None else terminal.get("detail", "")
            print(
                f"error: stream ended after {len(self.rows)} cells "
                f"({code}): {detail}",
                file=sys.stderr,
            )
            return 1
        means = [
            (self._sum(g, "total_time_s") / per, self._sum(g, "total_joules") / per)
            for g in range(len(self.grid))
        ]
        print(
            format_table(
                ["benchmark", "policy", "time (ms)", "energy (J)"],
                [
                    (s.workload_name, s.policy.name, t * 1e3, e)
                    for s, (t, e) in zip(self.grid[: self.clean], means)
                ],
                title=(
                    f"sweep means — {len(args.benchmarks)} benchmarks x "
                    f"{len(args.policies)} policies x {per} seeds"
                ),
            )
        )
        payload: dict = {
            "machine_cores": self.grid[0].build_machine().num_cores,
            "seeds": list(args.seeds),
            "repeat": args.repeat,
            "wall_seconds": self.wall,
            "fidelity": args.fidelity,
        }
        if args.remote is None:
            payload["fast_forward"] = not args.no_fast_forward
        else:
            payload["remote"] = args.remote
        if len(self.grid) > self.clean:
            resilience = []
            for g in range(self.clean):
                lost = self._sum(g, "tasks_executed") - self._sum(
                    g + self.clean, "tasks_executed"
                )
                (t, e), (faulted_t, faulted_e) = means[g], means[g + self.clean]
                resilience.append((
                    self.grid[g].workload_name,
                    self.grid[g].policy.name,
                    "ok" if lost == 0 else f"LOST {lost}",
                    faulted_t / t,
                    faulted_e / e,
                ))
            print()
            print(
                format_table(
                    ["benchmark", "policy", "tasks", "time x", "energy x"],
                    resilience,
                    title=f"resilience report — degradation under {args.faults}",
                    float_fmt="{:.3f}",
                )
            )
            payload["faults"] = self.grid[self.clean].faults.to_dict()
            payload["resilience"] = [
                {
                    "benchmark": benchmark,
                    "policy": policy,
                    "completed": status == "ok",
                    "time_ratio": time_ratio,
                    "energy_ratio": energy_ratio,
                }
                for benchmark, policy, status, time_ratio, energy_ratio
                in resilience
            ]
        payload["stats"] = self._closing_stats(stats)
        if args.json:
            import json

            payload["summary"] = {k: v for k, v in terminal.items() if k != "frame"}
            payload["cells"] = self.rows
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"  wrote {args.json}")
        return 0

    def _closing_stats(self, stats: Optional[SweepStats]) -> dict:
        """Print the closing stats lines; returns them for ``--json``."""
        wall, terminal = self.wall, self.terminal
        rate = len(self.rows) / wall if wall > 0 else 0.0
        latencies = sorted(row["latency_s"] for row in self.rows)

        def _pct(p: float) -> float:
            if not latencies:
                return 0.0
            return latencies[min(len(latencies) - 1, int(p * (len(latencies) - 1)))]

        out: dict = {
            "throughput_per_sec": rate,
            "latency_p50_s": _pct(0.50),
            "latency_p99_s": _pct(0.99),
        }
        if stats is None:
            sources = ", ".join(
                f"{count} {name}" for name, count in sorted(terminal["sources"].items())
            )
            print(
                f"  {terminal['cells']} cells streamed from {self.args.remote} in "
                f"{wall:.2f} s ({rate:.0f}/s): {terminal['from_cache']} from "
                f"cache ({sources})"
            )
        else:
            dedup_rate = stats.deduplicated / stats.cells if stats.cells else 0.0
            print(
                f"  {stats.cells} submissions in {wall:.2f} s "
                f"({stats.cells / wall if wall > 0 else 0.0:.0f}/s): "
                f"{stats.executed} simulated in {stats.chunks} chunks, "
                f"{stats.model_cells} model-predicted, {stats.cache_hits} from "
                f"cache ({stats.memo_hits} memo), {stats.deduplicated} coalesced "
                f"in flight (dedup rate {dedup_rate:.1%}), {stats.cancelled} cancelled"
            )
            out.update(
                submissions=stats.cells, executed=stats.executed,
                model_cells=stats.model_cells, cache_hits=stats.cache_hits,
                memo_hits=stats.memo_hits, deduplicated=stats.deduplicated,
                cancelled=stats.cancelled, chunks=stats.chunks,
                dedup_hit_rate=dedup_rate,
            )
        for field in ("batches_simulated", "batches_fast_forwarded"):
            out[field] = sum(c[field] for c in self.results.values())
        print(
            f"  batches: {out['batches_simulated']} simulated, "
            f"{out['batches_fast_forwarded']} fast-forwarded"
        )
        return out


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: one request, streamed from a local engine (through
    the service's own stream core) or from ``repro serve`` (``--remote``).

    Core levels for policies that need them are filled in where the cells
    run, by :func:`repro.service.server.resolve_scenario`.
    """
    from repro.service.protocol import SweepRequest

    if args.repeat < 1:
        raise ScenarioError(f"--repeat must be >= 1, got {args.repeat}")
    machine = _machine_spec(args.cores, preset=args.machine)
    faults = _load_faults(args.faults)
    grid = [
        ScenarioSpec(
            workload=name, policy=policy, machine=machine,
            seeds=tuple(args.seeds), batches=args.batches,
        )
        for name in args.benchmarks
        for policy in args.policies
    ]
    clean = len(grid)
    if faults is not None:
        # The faulted twins ride in the SAME request as the fault-free
        # baselines, so the engine and its cache see one sweep.
        grid += [s.with_faults(faults) for s in grid]
    request = SweepRequest(
        scenarios=tuple(grid) * args.repeat, fidelity=args.fidelity
    )
    report = _SweepReport(args, grid, clean)
    if args.remote is not None:
        from repro.service.client import ServiceError, SweepServiceClient

        try:
            for frame in SweepServiceClient(args.remote).stream(
                request.scenarios, fidelity=request.fidelity
            ):
                report.take(frame)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return report.finish(None)
    from repro.service.protocol import decode_frame
    from repro.service.server import stream_request

    with SweepEngine(
        workers=args.workers,
        cache_dir=None if args.no_cache else args.cache_dir,
        fast_forward=not args.no_fast_forward,
    ) as engine:
        stream_request(engine, request, lambda line: report.take(decode_frame(line)))
    return report.finish(engine.stats)


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

    scenario = _scenario(
        args,
        PolicySpec(
            args.policy,
            core_levels=(
                None if args.core_levels is None else tuple(args.core_levels)
            ),
        ),
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
        with SweepEngine() as engine:
            sim = engine.run_single(scenario)
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
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Engines and servers are context-managed, so the unwind that got
        # us here already closed them; 130 = 128 + SIGINT, the shell
        # convention for death-by-Ctrl-C.
        print("interrupted", file=sys.stderr)
        return 130
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main"]
