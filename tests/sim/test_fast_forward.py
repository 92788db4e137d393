"""Steady-state fast-forward: bit-identity, engagement, and bail-outs.

Every test compares a fast-forwarded run (the default) against a full
event-by-event run of the same cell and requires *bit-identical* results —
equality of the full trace fingerprint, not approximate scalars. The cells
that actually engage the replay live on
:func:`~repro.machine.topology.dyadic_test_machine`, where all float
arithmetic is exact; jittered benchmark programs double as negative tests
(the chain never forms, yet results must still match).
"""

import pytest

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.machine.topology import dyadic_test_machine, opteron_8380_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.cilk_d import CilkDScheduler
from repro.runtime.task import flat_batch
from repro.runtime.wats import WATSScheduler
from repro.sim.engine import simulate
from repro.sim.fingerprint import result_scalars, trace_fingerprint
from repro.workloads.periodic import periodic_batch_specs, periodic_program

POLICIES = ("cilk", "cilk-d", "wats", "eewa")
WATS_LEVELS_8 = [0, 0, 0, 0, 2, 2, 2, 2]
#: Dyadic adjuster costs so EEWA's overhead arithmetic stays float-exact.
DYADIC_OVERHEAD = OverheadModel(base_seconds=2.0**-11, per_cell_seconds=2.0**-17)


def build_policy(name):
    if name == "cilk":
        return CilkScheduler()
    if name == "cilk-d":
        return CilkDScheduler()
    if name == "wats":
        return WATSScheduler(WATS_LEVELS_8)
    return EEWAScheduler(EEWAConfig(overhead_model=DYADIC_OVERHEAD))


def run_pair(program, name, *, seed=11, **kwargs):
    machine = dyadic_test_machine(num_cores=8)
    fast = simulate(program, build_policy(name), machine, seed=seed, **kwargs)
    full = simulate(
        program, build_policy(name), machine, seed=seed,
        fast_forward=False, **kwargs,
    )
    return fast, full


def assert_bit_identical(fast, full):
    assert full.batches_fast_forwarded == 0
    assert result_scalars(fast) == result_scalars(full)
    assert trace_fingerprint(fast) == trace_fingerprint(full)


class TestParity:
    @pytest.mark.parametrize("name", POLICIES)
    def test_periodic_parity(self, name):
        fast, full = run_pair(periodic_program(30, 4, 8), name)
        assert_bit_identical(fast, full)

    @pytest.mark.parametrize("name", POLICIES)
    def test_counters_sum_to_batches_executed(self, name):
        fast, _ = run_pair(periodic_program(30, 4, 8), name)
        assert (
            fast.batches_simulated + fast.batches_fast_forwarded
            == fast.batches_executed
            == 30
        )

    def test_hundred_batch_parity(self):
        """The CI bench-smoke gate: one long cell, with and without
        fast-forward, must agree bit-for-bit (and actually engage)."""
        fast, full = run_pair(periodic_program(100, 4, 8), "eewa")
        assert_bit_identical(fast, full)
        assert fast.batches_fast_forwarded >= 90

    def test_resume_after_odd_batch(self):
        """A one-off divergent batch mid-program breaks the chain; the
        engine must resume full simulation there and re-engage after."""
        program = periodic_program(30, 4, 8)
        program[15] = flat_batch(15, periodic_batch_specs(6, 2))
        fast, full = run_pair(program, "eewa")
        assert_bit_identical(fast, full)
        assert 0 < fast.batches_fast_forwarded < 30
        assert fast.batches_simulated > 3  # re-detection costs extra batches

    def test_jittered_benchmark_parity(self):
        """Jittered per-seed task costs (the paper benchmarks) never form a
        stable chain — and must still be bit-identical with the flag on."""
        from repro.workloads.benchmarks import benchmark_program

        program = benchmark_program("SHA-1", batches=3, seed=23)
        machine = opteron_8380_machine()
        fast = simulate(program, EEWAScheduler(), machine, seed=23)
        full = simulate(
            program, EEWAScheduler(), machine, seed=23, fast_forward=False
        )
        assert fast.batches_fast_forwarded == 0
        assert_bit_identical(fast, full)


class TestEngagement:
    @pytest.mark.parametrize("name", ("eewa", "wats"))
    def test_steady_policies_engage(self, name):
        fast, _ = run_pair(periodic_program(30, 4, 8), name)
        assert fast.batches_fast_forwarded > 0
        assert fast.batches_simulated < 30

    @pytest.mark.parametrize("name", ("cilk", "cilk-d"))
    def test_randomized_placement_never_engages(self, name):
        # cilk draws its placement stream every batch, so no two boundary
        # RNG fingerprints ever match.
        fast, _ = run_pair(periodic_program(30, 4, 8), name)
        assert fast.batches_fast_forwarded == 0

    def test_steal_heavy_cell_never_engages(self):
        # 2 heavy + 20 light on 8 cores forces per-batch victim draws; the
        # RNG advances every batch and the chain never forms.
        fast, full = run_pair(periodic_program(30, 2, 20), "eewa")
        assert fast.batches_fast_forwarded == 0
        assert_bit_identical(fast, full)


class TestBailOuts:
    def test_flag_off_disables_replay(self):
        machine = dyadic_test_machine(num_cores=8)
        result = simulate(
            periodic_program(30, 4, 8), build_policy("eewa"), machine,
            seed=11, fast_forward=False,
        )
        assert result.batches_fast_forwarded == 0
        assert result.batches_simulated == 30

    def test_deep_trace_disables_replay(self):
        machine = dyadic_test_machine(num_cores=8)
        result = simulate(
            periodic_program(30, 4, 8), build_policy("eewa"), machine,
            seed=11, record_task_events=True,
        )
        assert result.batches_fast_forwarded == 0

    def test_power_series_disables_replay(self):
        machine = dyadic_test_machine(num_cores=8)
        result = simulate(
            periodic_program(30, 4, 8), build_policy("eewa"), machine,
            seed=11, record_power_series=True,
        )
        assert result.batches_fast_forwarded == 0


class TestNeighbourPreCheck:
    """A boundary whose batch repeats neither neighbour skips its snapshot."""

    @pytest.fixture
    def rng_fingerprints(self, monkeypatch):
        from repro.sim.rng import RngStreams

        calls = []
        original = RngStreams.state_fingerprint

        def spy(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(RngStreams, "state_fingerprint", spy)
        return calls

    @pytest.mark.parametrize("name", POLICIES)
    def test_jittered_table2_cell_takes_no_fingerprint(self, name, rng_fingerprints):
        from repro.scenario.registry import POLICIES as REGISTRY
        from repro.scenario.registry import spread_levels_for
        from repro.workloads.benchmarks import benchmark_program

        machine = opteron_8380_machine()
        levels = spread_levels_for(machine) if name == "wats" else None
        result = simulate(
            benchmark_program("SHA-1", batches=4, seed=23),
            REGISTRY.get(name).build(core_levels=levels),
            machine,
            seed=23,
        )
        assert result.batches_executed == 4
        assert rng_fingerprints == []

    def test_periodic_workload_still_fast_forwards(self, rng_fingerprints):
        from repro.workloads.benchmarks import benchmark_program

        result = simulate(
            benchmark_program("periodic", batches=30, seed=5),
            EEWAScheduler(),
            opteron_8380_machine(),
            seed=5,
        )
        assert rng_fingerprints
        assert result.batches_fast_forwarded > 0

    @pytest.mark.parametrize("name, replayed", [("eewa", 1), ("wats", 2)])
    def test_alternating_prefix_then_steady_tail(self, name, replayed):
        # A B A B: every boundary is skipped. The tail A A A A forms the
        # chain at the same boundary it always did and replays the rest.
        a = periodic_batch_specs(4, 8)
        b = periodic_batch_specs(6, 2)
        program = [
            flat_batch(i, specs) for i, specs in enumerate([a, b, a, b, a, a, a, a])
        ]
        fast, full = run_pair(program, name)
        assert_bit_identical(fast, full)
        assert fast.batches_fast_forwarded == replayed
