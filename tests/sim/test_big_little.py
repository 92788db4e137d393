"""Simulation smoke tests on the heterogeneous big.LITTLE machine.

The dyadic big.LITTLE preset keeps all float arithmetic exact, so the
same bit-identity bar as the homogeneous suites applies: determinism and
fast-forward parity are fingerprint equality, not approximate scalars.
"""

import pytest

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.machine.topology import big_little_test_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.cilk_d import CilkDScheduler
from repro.runtime.task import TaskSpec, flat_batch
from repro.runtime.wats import WATSScheduler
from repro.scenario.registry import spread_levels_for
from repro.sim.engine import simulate
from repro.sim.fingerprint import trace_fingerprint

POLICIES = ("cilk", "cilk-d", "wats", "eewa")
#: Dyadic adjuster costs so EEWA's overhead arithmetic stays float-exact.
DYADIC_OVERHEAD = OverheadModel(base_seconds=2.0**-11, per_cell_seconds=2.0**-17)


def build_policy(name, machine):
    if name == "cilk":
        return CilkScheduler()
    if name == "cilk-d":
        return CilkDScheduler()
    if name == "wats":
        return WATSScheduler(spread_levels_for(machine))
    return EEWAScheduler(EEWAConfig(overhead_model=DYADIC_OVERHEAD))


def program(batches=3, tasks=12):
    ref = big_little_test_machine().scale.fastest
    return [
        flat_batch(
            b,
            [TaskSpec("work", cpu_cycles=2.0**-6 * ref) for _ in range(tasks)],
        )
        for b in range(batches)
    ]


@pytest.mark.parametrize("name", POLICIES)
def test_policies_run_to_completion(name):
    machine = big_little_test_machine()
    result = simulate(program(), build_policy(name, machine), machine, seed=11)
    assert result.tasks_executed == 3 * 12
    assert result.batches_executed == 3
    assert result.total_joules > 0

@pytest.mark.parametrize("name", POLICIES)
def test_deterministic_across_repeats(name):
    machine = big_little_test_machine()
    a = simulate(program(), build_policy(name, machine), machine, seed=11)
    b = simulate(program(), build_policy(name, machine), machine, seed=11)
    assert trace_fingerprint(a) == trace_fingerprint(b)


@pytest.mark.parametrize("name", POLICIES)
def test_fast_forward_parity(name):
    machine = big_little_test_machine()
    fast = simulate(program(8), build_policy(name, machine), machine, seed=11)
    full = simulate(
        program(8), build_policy(name, machine), machine, seed=11,
        fast_forward=False,
    )
    assert trace_fingerprint(fast) == trace_fingerprint(full)


def test_little_cores_slower_than_big_at_top_level():
    """One task per core at level 0: little cores retire half as fast."""
    machine = big_little_test_machine(big_cores=1, little_cores=1)
    ref = machine.scale.fastest
    batch = flat_batch(0, [TaskSpec("work", cpu_cycles=2.0**-4 * ref)] * 2)
    result = simulate([batch], CilkScheduler(), machine, seed=1)
    assert result.tasks_executed == 2
    # The big core finishes its task in 2^-4 s; the little core needs twice
    # that (ipc 0.5 at the same declared hertz), so it is the straggler.
    assert result.total_time > 2.0 * 2.0**-4
