"""Tests for the analytic companion model (``repro.model``).

Eligibility/decline taxonomy, prediction accuracy against the simulator
on in-envelope cells, determinism, and the envelope guards that keep the
model honest (rotation-sensitive mixed-speed schedules, heterogeneous
machines, faults).
"""

import pickle

import pytest

from repro.machine.topology import (
    big_little_test_machine,
    dyadic_test_machine,
    opteron_8380_machine,
)
from repro.model import (
    MAX_RELATIVE_ERROR,
    MODEL_VERSION,
    classify_cell,
    decline_reason,
    model_key,
    predict_cell,
)
from repro.scenario.registry import POLICIES
from repro.sim.engine import simulate
from repro.workloads.benchmarks import benchmark_program
from repro.workloads.periodic import periodic_program


def _policy(name, **kwargs):
    return POLICIES.get(name).build(**kwargs)


@pytest.fixture(scope="module")
def dyadic():
    return dyadic_test_machine(num_cores=8)


@pytest.fixture(scope="module")
def periodic120():
    return tuple(periodic_program(120))


class TestDeclines:
    def test_unknown_policy(self, dyadic, periodic120):
        reason = decline_reason(periodic120, "nonesuch", dyadic)
        assert reason is not None and "nonesuch" in reason

    def test_wats_has_no_analytic_form(self, dyadic, periodic120):
        assert decline_reason(periodic120, "wats", dyadic) is not None

    def test_faults_decline(self, dyadic, periodic120):
        assert decline_reason(
            periodic120, "cilk", dyadic, faults=object()
        ) is not None
        assert predict_cell(
            periodic120, "cilk", dyadic, faults=object()
        ) is None

    def test_eligible_cell_has_no_reason(self, dyadic, periodic120):
        assert decline_reason(periodic120, "cilk", dyadic) is None
        assert decline_reason(periodic120, "eewa", dyadic) is None


class TestEligibility:
    def test_heterogeneous_machine_ineligible(self, periodic120):
        verdict = classify_cell(
            periodic120, "cilk", big_little_test_machine()
        )
        assert not verdict
        assert verdict.reason

    def test_small_batches_ineligible(self, dyadic):
        # 3 tasks per batch on 8 cores: steal noise unamortised.
        program = tuple(periodic_program(10, 1, 2))
        assert not classify_cell(program, "cilk", dyadic)

    def test_periodic_eligible(self, dyadic, periodic120):
        verdict = classify_cell(periodic120, "cilk", dyadic)
        assert verdict
        assert verdict.reason is None


class TestAccuracy:
    @pytest.mark.parametrize("policy", ["cilk", "cilk-d", "eewa"])
    def test_periodic_within_bounds(self, dyadic, periodic120, policy):
        model = predict_cell(periodic120, policy, dyadic)
        assert model is not None
        sim = simulate(list(periodic120), _policy(policy), dyadic, seed=0)
        assert model.total_time == pytest.approx(
            sim.total_time, rel=MAX_RELATIVE_ERROR
        )
        assert model.total_joules == pytest.approx(
            sim.total_joules, rel=MAX_RELATIVE_ERROR
        )

    def test_golden_benchmark_within_bounds(self):
        machine = opteron_8380_machine()
        program = tuple(benchmark_program("SHA-1", batches=10, seed=11))
        model = predict_cell(program, "cilk", machine)
        assert model is not None
        sim = simulate(list(program), _policy("cilk"), machine, seed=11)
        assert model.total_time == pytest.approx(
            sim.total_time, rel=MAX_RELATIVE_ERROR
        )
        assert model.total_joules == pytest.approx(
            sim.total_joules, rel=MAX_RELATIVE_ERROR
        )


class TestDeterminism:
    def test_prediction_is_seed_independent(self, dyadic, periodic120):
        a = predict_cell(periodic120, "eewa", dyadic, 0)
        b = predict_cell(periodic120, "eewa", dyadic, 12345)
        assert a == b

    def test_prediction_is_reproducible(self, dyadic, periodic120):
        a = predict_cell(periodic120, "cilk-d", dyadic)
        b = predict_cell(periodic120, "cilk-d", dyadic)
        assert a == b

    def test_result_pickles(self, dyadic, periodic120):
        result = predict_cell(periodic120, "eewa", dyadic)
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result


class TestRotationGuard:
    """Mixed per-core speeds can make the engine's seed-dependent task
    placement change the makespan; the model must refuse to guess."""

    MIXED = (0, 0, 0, 0, 1, 1, 1, 1)

    def test_rotation_dependent_schedule_declines(self, dyadic):
        # 6 heavy tasks cannot all fit the 4 fast cores: the rotation
        # decides which slow core eats heavy work, and the simulated
        # makespan genuinely varies with the seed.
        program = tuple(periodic_program(4, 6, 6))
        assert predict_cell(
            program, "cilk", dyadic, core_levels=self.MIXED
        ) is None

    def test_rotation_invariant_mixed_levels_predict(self, dyadic):
        # 4 heavy tasks rebalance through steals whatever the rotation;
        # the prediction stands and stays within bounds for every seed.
        program = tuple(periodic_program(4, 4, 8))
        model = predict_cell(program, "cilk", dyadic, core_levels=self.MIXED)
        assert model is not None
        for seed in (0, 3, 11):
            sim = simulate(
                list(program),
                _policy("cilk", core_levels=self.MIXED),
                dyadic,
                seed=seed,
            )
            assert model.total_time == pytest.approx(
                sim.total_time, rel=MAX_RELATIVE_ERROR
            )

    def test_uniform_levels_never_decline(self, dyadic):
        program = tuple(periodic_program(4, 6, 6))
        assert predict_cell(
            program, "cilk", dyadic, core_levels=(1,) * 8
        ) is not None


class TestModelKey:
    def test_model_key_differs_from_sim_key(self):
        assert model_key("a" * 64) != "a" * 64

    def test_model_key_is_deterministic_per_sim_key(self):
        assert MODEL_VERSION  # non-empty version string feeds the key
        assert model_key("a" * 64) == model_key("a" * 64)
        assert model_key("a" * 64) != model_key("b" * 64)
