"""A finished run leaves nothing for the cycle collector.

The policy holds its simulator as ``ctx``; if the simulator held the
policy back, every run would leave the simulator, the policy and all its
``Task`` records in one reference cycle (hundreds to thousands of objects
per Table II cell) that only a gen-1 or gen-2 collection frees. With the
collector off, dropping the simulator, the policy and the result must
free everything at once.
"""

import gc
import weakref

import pytest

from repro.machine.topology import opteron_8380_machine
from repro.scenario.registry import POLICIES, spread_levels_for
from repro.sim.engine import Simulator
from repro.workloads.benchmarks import benchmark_program


@pytest.mark.parametrize("policy_name", ["cilk", "cilk-d", "wats", "eewa"])
def test_finished_run_leaves_no_reference_cycle(policy_name):
    machine = opteron_8380_machine()
    program = tuple(benchmark_program("BWC", seed=3))
    levels = spread_levels_for(machine) if policy_name == "wats" else None
    policy = POLICIES.get(policy_name).build(core_levels=levels)
    gc.collect()
    gc.disable()
    try:
        sim = Simulator(machine, policy, seed=3)
        alive = weakref.ref(sim)
        result = sim.run(program)
        assert result.tasks_executed > 0
        # Reading a policy after its run still works: it keeps its ctx.
        assert policy.ctx is sim
        del sim, policy, result
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
