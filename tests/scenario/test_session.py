"""The Session facade: parity with direct simulation, grids, caching."""

import pytest

from repro.errors import ScenarioError
from repro.machine.topology import small_test_machine
from repro.scenario import POLICIES, MachineSpec, PolicySpec, ScenarioSpec, Session
from repro.scenario import session as session_mod
from repro.experiments import parallel as parallel_mod
from repro.sim.engine import simulate
from repro.workloads.benchmarks import benchmark_program

SMALL = MachineSpec(preset="small-test")


def _fingerprint(result):
    """The scalar outcome of one simulation (EnergyMeter has no __eq__,
    so whole-SimResult equality never holds across independent runs)."""
    return (
        result.policy_name,
        result.total_time,
        result.total_joules,
        result.tasks_executed,
    )


def _same_outcome(a, b):
    return (
        (a.benchmark, a.policy) == (b.benchmark, b.policy)
        and [_fingerprint(r) for r in a.results]
        == [_fingerprint(r) for r in b.results]
    )


def _spec(policy="cilk", seeds=(3, 5), **kwargs):
    return ScenarioSpec(
        workload="SHA-1",
        policy=policy,
        machine=SMALL,
        seeds=seeds,
        batches=2,
        **kwargs,
    )


def test_default_cache_dir_mirrors_parallel():
    # session.py duplicates the constant to break an import cycle; keep
    # the two spellings in lock-step.
    assert session_mod.DEFAULT_CACHE_DIR == parallel_mod.DEFAULT_CACHE_DIR


class TestSingleScenario:
    def test_from_spec_run_matches_run_benchmark(self):
        spec = _spec()
        with Session.from_spec(spec) as session:
            outcome = session.run()
        machine = small_test_machine(num_cores=4, levels=(2.0e9, 1.5e9, 1.0e9))
        direct = [
            simulate(
                benchmark_program("SHA-1", batches=2, seed=seed),
                POLICIES.get("cilk").build(), machine, seed=seed,
            )
            for seed in (3, 5)
        ]
        assert [_fingerprint(r) for r in outcome.results] == [
            _fingerprint(r) for r in direct
        ]

    def test_run_accepts_explicit_spec(self):
        session = Session()
        outcome = session.run(_spec(seeds=(3,)))
        assert (outcome.benchmark, outcome.policy) == ("SHA-1", "cilk")
        assert len(outcome.results) == 1

    def test_unbound_session_raises(self):
        with pytest.raises(ScenarioError, match="no scenario bound"):
            Session().run()

    def test_run_single_defaults_to_first_seed(self):
        session = Session.from_spec(_spec(seeds=(3, 5)))
        assert _fingerprint(session.run_single()) == _fingerprint(
            session.run_single(seed=3)
        )

    def test_run_detailed_carries_provenance(self):
        cells = Session.from_spec(_spec(seeds=(3, 5))).run_detailed()
        assert [c.spec.seed for c in cells] == [3, 5]
        assert all(not c.from_cache for c in cells)


class TestGrid:
    def test_run_grid_groups_per_spec(self):
        specs = [_spec("cilk"), _spec("cilk-d")]
        outcomes = Session().run_grid(specs)
        assert [(o.benchmark, o.policy) for o in outcomes] == [
            ("SHA-1", "cilk"), ("SHA-1", "cilk-d"),
        ]
        assert all(len(o.results) == 2 for o in outcomes)

    def test_identical_cells_deduplicated(self):
        session = Session()
        session.run_grid([_spec(seeds=(3,)), _spec(seeds=(3,))])
        assert session.stats.executed == 1
        assert session.stats.deduplicated == 1


class TestCaching:
    def test_second_session_hits_the_cache(self, tmp_path):
        spec = _spec(seeds=(3,))
        first = Session.from_spec(spec, cache_dir=tmp_path)
        a = first.run()
        assert first.stats.executed == 1 and first.stats.cache_hits == 0
        second = Session.from_spec(spec, cache_dir=tmp_path)
        b = second.run()
        assert second.stats.executed == 0 and second.stats.cache_hits == 1
        assert _same_outcome(a, b)

    def test_for_experiment_serial_is_uncached(self):
        with Session.for_experiment(parallel=False) as session:
            assert session.engine.cache is None

    def test_for_experiment_parallel_uses_shared_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with Session.for_experiment(parallel=True, workers=0) as session:
            assert str(session.engine.cache.root) == session_mod.DEFAULT_CACHE_DIR


class TestModalLevels:
    def test_modal_levels_match_machine_width(self):
        spec = _spec(policy="eewa", seeds=(3,))
        levels = Session().modal_eewa_levels(spec)
        machine = spec.build_machine()
        assert len(levels) == machine.num_cores
        assert all(0 <= lv < machine.r for lv in levels)

    def test_wats_runs_on_modal_levels(self):
        session = Session()
        spec = _spec(policy="cilk", seeds=(3,))
        levels = session.modal_eewa_levels(spec)
        wats = spec.with_policy(PolicySpec("wats", core_levels=tuple(levels)))
        result = session.run_single(wats)
        assert result.tasks_executed > 0
