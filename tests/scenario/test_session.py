"""The sweep engine's scenario methods: parity with direct simulation,
grids, caching, modal levels, registered workloads.

(The module keeps its name from the facade these methods moved off, so
each test keeps its ID.)"""

import uuid

import pytest

from repro.machine.topology import small_test_machine
from repro.scenario import (
    POLICIES,
    WORKLOADS,
    MachineSpec,
    PolicySpec,
    ScenarioSpec,
    register_workload,
)
from repro.experiments import parallel as parallel_mod
from repro.experiments.sweep import SweepEngine
from repro.sim.engine import simulate
from repro.workloads.benchmarks import benchmark_program
from repro.workloads.spec import TaskClassSpec, WorkloadSpec

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


class TestSingleScenario:
    def test_bound_spec_run_matches_direct_simulation(self):
        spec = _spec()
        with SweepEngine() as engine:
            outcome = engine.run(spec)
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
        with SweepEngine() as engine:
            outcome = engine.run(_spec(seeds=(3,)))
        assert (outcome.benchmark, outcome.policy) == ("SHA-1", "cilk")
        assert len(outcome.results) == 1

    def test_run_single_defaults_to_first_seed(self):
        spec = _spec(seeds=(3, 5))
        with SweepEngine() as engine:
            assert _fingerprint(engine.run_single(spec)) == _fingerprint(
                engine.run_single(spec, seed=3)
            )

    def test_run_grid_detailed_carries_provenance(self):
        with SweepEngine() as engine:
            (cells,) = engine.run_grid_detailed([_spec(seeds=(3, 5))])
        assert [c.spec.seed for c in cells] == [3, 5]
        assert all(not c.from_cache for c in cells)


class TestGrid:
    def test_run_grid_groups_per_spec(self):
        specs = [_spec("cilk"), _spec("cilk-d")]
        with SweepEngine() as engine:
            outcomes = engine.run_grid(specs)
        assert [(o.benchmark, o.policy) for o in outcomes] == [
            ("SHA-1", "cilk"), ("SHA-1", "cilk-d"),
        ]
        assert all(len(o.results) == 2 for o in outcomes)

    def test_identical_cells_deduplicated(self):
        with SweepEngine() as engine:
            engine.run_grid([_spec(seeds=(3,)), _spec(seeds=(3,))])
        assert engine.stats.executed == 1
        assert engine.stats.deduplicated == 1


class TestCaching:
    def test_second_session_hits_the_cache(self, tmp_path):
        spec = _spec(seeds=(3,))
        with SweepEngine(cache_dir=tmp_path) as first:
            a = first.run(spec)
        assert first.stats.executed == 1 and first.stats.cache_hits == 0
        with SweepEngine(cache_dir=tmp_path) as second:
            b = second.run(spec)
        assert second.stats.executed == 0 and second.stats.cache_hits == 1
        assert _same_outcome(a, b)


class TestModalLevels:
    def test_modal_levels_match_machine_width(self):
        spec = _spec(policy="eewa", seeds=(3,))
        with SweepEngine() as engine:
            levels = engine.modal_eewa_levels(spec)
        machine = spec.build_machine()
        assert len(levels) == machine.num_cores
        assert all(0 <= lv < machine.r for lv in levels)

    def test_wats_runs_on_modal_levels(self):
        spec = _spec(policy="cilk", seeds=(3,))
        with SweepEngine() as engine:
            levels = engine.modal_eewa_levels(spec)
            wats = spec.with_policy(PolicySpec("wats", core_levels=tuple(levels)))
            result = engine.run_single(wats)
        assert result.tasks_executed > 0


#: A workload that ships with nothing: it exists only once registered.
PLUGIN = WorkloadSpec(
    name="plugin-sha",
    description="a plugin workload",
    classes=(
        TaskClassSpec("chunk", count=4, mean_seconds=20e-3),
        TaskClassSpec("record", count=12, mean_seconds=1.5e-3),
    ),
)


@pytest.fixture()
def plugin_workload():
    """``PLUGIN`` registered under a fresh name, removed again after."""
    name = f"plugin-{uuid.uuid4().hex[:12]}"
    register_workload(name, description=PLUGIN.description)(lambda: PLUGIN)
    yield name
    del WORKLOADS._entries[name]


class TestRegisteredWorkload:
    """The registry is the one workload table: a plugin runs wherever a
    shipped workload does."""

    def _scenarios(self, name):
        return [
            ScenarioSpec(
                workload=workload, policy="cilk", machine=SMALL,
                seeds=(3,), batches=2,
            )
            for workload in (name, PLUGIN)
        ]

    def test_session_runs_it_like_the_inline_spec(self, plugin_workload):
        named, inline = self._scenarios(plugin_workload)
        with SweepEngine() as engine:
            by_name = engine.run(named)
            by_spec = engine.run(inline)
        assert by_name.benchmark == plugin_workload
        assert [_fingerprint(r) for r in by_name.results] == [
            _fingerprint(r) for r in by_spec.results
        ]

    def test_engine_keys_it_like_the_inline_spec(self, plugin_workload):
        named, inline = self._scenarios(plugin_workload)
        with SweepEngine(workers=0, cache_dir=None) as engine:
            by_name, by_spec = (
                engine.submit(parallel_mod.CellSpec.from_scenario(s, 3)).result()
                for s in (named, inline)
            )
        assert by_name.result.tasks_executed > 0
        assert by_name.key == by_spec.key
