"""Regenerate the golden-trace fixture (``golden_hashes.json``).

Run from the repo root::

    PYTHONPATH=src python tests/sim/golden_gen.py

The fixture pins, for every shipped policy × program × seed cell, the
result scalars and the full trace fingerprint. Any engine change that
shifts event ordering, timing, energy, or task placement fails the golden
suite loudly. Regenerate (and justify in review) only when an
*intentional* behaviour change is being made.
"""

from __future__ import annotations

import json
import pathlib

from repro.machine.topology import opteron_8380_machine
from repro.runtime.task import TaskSpec, flat_batch
from repro.scenario.registry import POLICIES
from repro.sim.engine import simulate
from repro.sim.fingerprint import trace_fingerprint
from repro.workloads.benchmarks import benchmark_program

FIXTURE = pathlib.Path(__file__).parent / "golden_hashes.json"

SEEDS = (11, 23, 37)
BENCHMARKS = ("SHA-1", "BWC")
GOLDEN_BATCHES = 3
#: Fixed asymmetric vector for WATS (it cannot pick its own frequencies).
WATS_LEVELS_16 = [0] * 8 + [1] * 4 + [3] * 4

REF = 2.5e9


def spawn_program():
    """A nested-spawn program: exercises the mid-run wakeup path."""
    child = TaskSpec("leaf", cpu_cycles=0.002 * REF)
    mid = TaskSpec("mid", cpu_cycles=0.004 * REF, children=(child, child))
    roots = [
        TaskSpec("root", cpu_cycles=0.006 * REF, children=(mid, child))
        for _ in range(24)
    ]
    return [flat_batch(0, roots), flat_batch(1, roots)]


def cells():
    for benchmark in BENCHMARKS:
        for policy in ("cilk", "cilk-d", "wats", "eewa"):
            for seed in SEEDS:
                yield benchmark, policy, seed
    for policy in ("cilk", "eewa"):
        for seed in SEEDS:
            yield "spawn-tree", policy, seed


def run_cell(benchmark: str, policy: str, seed: int):
    machine = opteron_8380_machine()
    if benchmark == "spawn-tree":
        program = spawn_program()
    else:
        program = benchmark_program(benchmark, batches=GOLDEN_BATCHES, seed=seed)
    core_levels = WATS_LEVELS_16 if policy == "wats" else None
    policy_obj = POLICIES.get(policy).build(core_levels=core_levels)
    result = simulate(program, policy_obj, machine, seed=seed)
    return {
        "total_time": result.total_time,
        "total_joules": result.total_joules,
        "tasks_executed": result.tasks_executed,
        "fingerprint": trace_fingerprint(result),
    }


def main() -> None:
    fixture = {
        f"{benchmark}/{policy}/seed{seed}": run_cell(benchmark, policy, seed)
        for benchmark, policy, seed in cells()
    }
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixture)} golden cells to {FIXTURE}")


if __name__ == "__main__":
    main()
