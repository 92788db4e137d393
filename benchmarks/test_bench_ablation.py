"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation runs the same workload with one knob flipped and reports the
energy/time movement:

* backtracking (Algorithm 1) vs exhaustive tuple search;
* discrete (granularity-aware) vs fluid (paper Table I) CC tables;
* leftover-core parking policy;
* per-batch adaptation vs a frozen plan under workload drift;
* preference-based stealing vs plain random stealing on an asymmetric
  config (the Fig. 1(c) failure mode).
"""

from conftest import save_exhibit

from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepEngine
from repro.machine.topology import opteron_8380_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.wats import WATSScheduler
from repro.scenario import ScenarioSpec
from repro.sim.engine import simulate
from repro.workloads.benchmarks import benchmark_program

BENCH = "SHA-1"
BATCHES = 10
SEED = 11


def _run(config: EEWAConfig | None = None, policy=None):
    machine = opteron_8380_machine()
    program = benchmark_program(BENCH, batches=BATCHES, seed=SEED)
    pol = policy if policy is not None else EEWAScheduler(config)
    return simulate(program, pol, machine, seed=SEED)


def test_bench_ablation_search_algorithm(benchmark, results_dir):
    def run_both():
        bt = _run(EEWAConfig(search="backtracking"))
        ex = _run(EEWAConfig(search="exhaustive"))
        return bt, ex

    bt, ex = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = format_table(
        ["search", "time (ms)", "energy (J)"],
        [
            ("backtracking (Alg. 1)", bt.total_time * 1e3, bt.total_joules),
            ("exhaustive", ex.total_time * 1e3, ex.total_joules),
        ],
        title=f"Ablation — tuple search algorithm ({BENCH})",
    )
    save_exhibit(results_dir, "ablation_search", table)
    # The paper's 'near-optimal' claim: exhaustive saves at most a little
    # more energy; backtracking is never catastrophically worse.
    assert ex.total_joules <= bt.total_joules * 1.02
    assert bt.total_joules <= ex.total_joules * 1.15


def test_bench_ablation_cc_mode(benchmark, results_dir):
    def run_both():
        disc = _run(EEWAConfig(cc_mode="discrete"))
        fluid = _run(EEWAConfig(cc_mode="fluid"))
        return disc, fluid

    disc, fluid = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = format_table(
        ["cc mode", "time (ms)", "energy (J)"],
        [
            ("discrete (granularity-aware)", disc.total_time * 1e3, disc.total_joules),
            ("fluid (paper Table I)", fluid.total_time * 1e3, fluid.total_joules),
        ],
        title=f"Ablation — CC table mode ({BENCH})",
    )
    save_exhibit(results_dir, "ablation_cc_mode", table)
    # The fluid table ignores task granularity, under-provisioning coarse
    # classes: it must cost time relative to the discrete table.
    assert fluid.total_time > disc.total_time


def test_bench_ablation_leftover_policy(benchmark, results_dir):
    def run_all():
        return {
            pol: _run(EEWAConfig(leftover_policy=pol))
            for pol in ("slowest", "join_slowest_group", "fastest")
        }

    runs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["leftover policy", "time (ms)", "energy (J)"],
        [
            (name, r.total_time * 1e3, r.total_joules)
            for name, r in runs.items()
        ],
        title=f"Ablation — leftover-core parking ({BENCH})",
    )
    save_exhibit(results_dir, "ablation_leftover", table)
    # Parking spare cores at the slowest level saves energy vs keeping
    # them spinning at the fastest.
    assert runs["slowest"].total_joules < runs["fastest"].total_joules


def test_bench_ablation_adaptation(benchmark, results_dir):
    def run_both():
        adapt = _run(EEWAConfig(adapt_every_batch=True))
        frozen = _run(EEWAConfig(adapt_every_batch=False))
        return adapt, frozen

    adapt, frozen = benchmark.pedantic(run_both, rounds=1, iterations=1)
    table = format_table(
        ["mode", "time (ms)", "energy (J)"],
        [
            ("adapt every batch (paper)", adapt.total_time * 1e3, adapt.total_joules),
            ("frozen after batch 1", frozen.total_time * 1e3, frozen.total_joules),
        ],
        title=f"Ablation — per-batch adaptation under drift ({BENCH})",
    )
    save_exhibit(results_dir, "ablation_adaptation", table)
    # Under drift the frozen plan must not beat adaptation on time by much,
    # and adaptation should not cost much energy. (Both directions small —
    # this documents the trade rather than a dominance.)
    assert adapt.total_time < frozen.total_time * 1.10
    assert adapt.total_joules < frozen.total_joules * 1.10


def test_bench_ablation_preference_stealing(benchmark, results_dir):
    """Fig. 1(c) in the large: random stealing on the asymmetric config
    EEWA chose vs WATS's preference-based stealing on the same config."""

    def run_all():
        machine = opteron_8380_machine()
        with SweepEngine() as engine:
            levels = engine.modal_eewa_levels(
                ScenarioSpec(workload=BENCH, policy="eewa", batches=BATCHES),
                seed=SEED,
            )
        program = benchmark_program(BENCH, batches=BATCHES, seed=SEED)
        random_steal = simulate(
            program, CilkScheduler(core_levels=levels), machine, seed=SEED
        )
        preference = simulate(program, WATSScheduler(levels), machine, seed=SEED)
        return random_steal, preference

    random_steal, preference = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["stealing", "time (ms)", "energy (J)"],
        [
            ("random (Cilk)", random_steal.total_time * 1e3, random_steal.total_joules),
            ("preference-based", preference.total_time * 1e3, preference.total_joules),
        ],
        title=f"Ablation — stealing policy on a fixed asymmetric config ({BENCH})",
    )
    save_exhibit(results_dir, "ablation_stealing", table)
    assert preference.total_time < random_steal.total_time


def test_bench_ablation_dvfs_granularity(benchmark, results_dir):
    """Per-core vs per-socket DVFS: the real Opteron 8380 shared frequency
    planes per socket; EEWA's savings shrink when a plane cannot split."""

    def run_both():
        program = benchmark_program(BENCH, batches=BATCHES, seed=SEED)
        fine = opteron_8380_machine()
        coarse = opteron_8380_machine(per_socket_dvfs=True)
        out = {}
        for label, machine in (("per-core", fine), ("per-socket", coarse)):
            cilk = simulate(program, CilkScheduler(), machine, seed=SEED)
            eewa = simulate(program, EEWAScheduler(), machine, seed=SEED)
            out[label] = (cilk, eewa)
        return out

    runs = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    savings = {}
    for label, (cilk, eewa) in runs.items():
        saving = 100.0 * (1 - eewa.total_joules / cilk.total_joules)
        savings[label] = saving
        rows.append((label, eewa.total_time * 1e3, eewa.total_joules, saving))
    table = format_table(
        ["DVFS granularity", "eewa time (ms)", "eewa energy (J)", "saving %"],
        rows,
        title=f"Ablation — DVFS granularity ({BENCH})",
    )
    save_exhibit(results_dir, "ablation_dvfs_granularity", table)
    # Coarser planes cost savings but never performance.
    assert 0.0 < savings["per-socket"] < savings["per-core"]
