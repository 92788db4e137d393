"""Tests for cached, deduplicated cell execution through SweepEngine:
cell keys, the result cache, and pooled engines."""

import dataclasses
import multiprocessing
import shutil
import threading
import uuid
from collections import OrderedDict

import pytest

from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.experiments.outcome import modal_levels_from_result
from repro.experiments.parallel import CellSpec, ResultCache, cell_key
from repro.experiments.sweep import SweepEngine
from repro.faults.spec import FaultSpec
from repro.machine.topology import MachineConfig, opteron_8380_machine, small_test_machine
from repro.runtime.task import Batch
from repro.scenario import POLICIES, MachineSpec, PolicySpec, ScenarioSpec
from repro.scenario.registry import MACHINES, WORKLOADS, register_machine, register_workload
from repro.scenario.spec import DEFAULT_SEEDS
from repro.service.protocol import parse_sweep_request
from repro.service.server import stream_request
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.workloads.benchmarks import BENCHMARK_NAMES, benchmark_program
from repro.workloads.spec import TaskClassSpec, WorkloadSpec

BATCHES = 3


def _scenario(benchmark, policy, **kwargs):
    kwargs.setdefault("batches", BATCHES)
    return ScenarioSpec(workload=benchmark, policy=policy, **kwargs)


def _direct(benchmark, policy, seeds=DEFAULT_SEEDS):
    """The reference: one plain ``simulate`` per seed, no engine or cache."""
    machine = opteron_8380_machine()
    return [
        simulate(
            benchmark_program(benchmark, batches=BATCHES, seed=seed),
            POLICIES.get(policy).build(), machine, seed=seed,
        )
        for seed in seeds
    ]


def _scalars(results):
    return [(r.total_time, r.total_joules) for r in results]


class TestCellKey:
    def setup_method(self):
        self.machine = opteron_8380_machine()
        self.program = tuple(benchmark_program("SHA-1", batches=BATCHES, seed=11))

    def key(self, **overrides):
        kwargs = dict(
            benchmark="SHA-1", program=self.program, policy="cilk",
            machine=self.machine, seed=11,
        )
        kwargs.update(overrides)
        return cell_key(CellSpec(**kwargs), fast_forward=True)

    def test_stable(self):
        assert self.key() == self.key()

    def test_seed_changes_key(self):
        assert self.key() != self.key(seed=12)

    def test_policy_changes_key(self):
        assert self.key() != self.key(policy="cilk-d")

    def test_program_changes_key(self):
        other = tuple(benchmark_program("SHA-1", batches=BATCHES, seed=23))
        assert self.key() != self.key(program=other)

    def test_machine_changes_key(self):
        other = self.machine.with_cores(8)
        assert self.key() != self.key(machine=other)

    def test_policy_config_changes_key(self):
        assert self.key() != self.key(eewa_config=EEWAConfig(headroom=0.2))
        assert self.key() != self.key(core_levels=(0,) * 16)

    # A scenario's cells reach the key through CellSpec.from_scenario, as
    # the engine builds them: each axis of the scenario must move the key.

    @staticmethod
    def scenario_key(**overrides):
        kwargs = dict(workload="SHA-1", policy="eewa", seeds=(11,), batches=BATCHES)
        kwargs.update(overrides)
        cell = CellSpec.from_scenario(ScenarioSpec(**kwargs), 11)
        return cell_key(cell, fast_forward=True)

    def test_policy_param_changes_key(self):
        tuned = PolicySpec("eewa", params={"headroom": 0.2})
        assert self.scenario_key() != self.scenario_key(policy=tuned)

    def test_faults_change_key(self):
        faults = FaultSpec(stall_rate=0.1, stall_duration_s=1e-3)
        assert self.scenario_key() != self.scenario_key(faults=faults)

    def test_core_count_changes_key(self):
        assert self.scenario_key() != self.scenario_key(
            machine=MachineSpec(num_cores=8)
        )

    def test_engine_version_in_key(self):
        # The version tag must gate the cache: identical inputs under a
        # different engine tag may not alias.
        import repro.experiments.parallel as par

        k1 = self.key()
        original = par.ENGINE_VERSION
        par.ENGINE_VERSION = original + "-x"
        try:
            assert self.key() != k1
        finally:
            par.ENGINE_VERSION = original


class TestMachineMemo:
    def test_memo_is_a_bounded_lru(self):
        from repro.experiments.parallel import (
            _MACHINE_MEMO_ENTRIES,
            _machine_digest,
            _machine_memo,
        )

        held = [
            opteron_8380_machine(num_cores=n)
            for n in range(1, _MACHINE_MEMO_ENTRIES + 65)
        ]
        digests = [_machine_digest(machine) for machine in held]
        assert len(_machine_memo) <= _MACHINE_MEMO_ENTRIES
        # A live entry is still an identity-verified hit...
        assert _machine_digest(held[-1]) == digests[-1]
        # ...and recomputing an evicted one agrees with the original.
        assert _machine_digest(held[0]) == digests[0]

    def test_a_preset_machine_is_digested_once(self, monkeypatch):
        from repro.experiments import parallel

        parallel._machine_memo.clear()
        digested = []
        digest = parallel.digest

        def counting(values):
            digested.extend(v for v in values if isinstance(v, MachineConfig))
            return digest(values)

        monkeypatch.setattr(parallel, "digest", counting)
        specs = [
            ScenarioSpec(workload=name, policy="cilk", seeds=(seed,), batches=1)
            for name in BENCHMARK_NAMES
            for seed in (1, 2)
        ]
        with SweepEngine(workers=0, cache_dir=None) as engine:
            engine.run_cells([CellSpec.from_scenario(s, s.seeds[0]) for s in specs])
        assert len(digested) == 1


class TestGridDigests:
    def test_generated_grid_digests_no_program(self, monkeypatch):
        # A generated cell is keyed by its workload spec and batch count,
        # so a grid of 280 cells on 140 programs digests no program at
        # all. Before, it digested each program once, and only while the
        # programs fit an identity memo.
        from repro.experiments import parallel

        digested = []
        digest = parallel.digest

        def counting(values):
            value = values[0]
            if isinstance(value, tuple) and value and isinstance(value[0], Batch):
                digested.append(value)
            return digest(values)

        monkeypatch.setattr(parallel, "digest", counting)
        grid = [
            ScenarioSpec(workload=name, policy=policy, seeds=tuple(range(20)), batches=2)
            for policy in ("cilk", "eewa")
            for name in BENCHMARK_NAMES
        ]
        with SweepEngine() as engine:
            engine.run_grid(grid)
            assert engine.stats.executed == 280
        assert digested == []


def _generated_key(spec, seed=11, batches=BATCHES):
    cell = CellSpec(
        "inline", "cilk", seed=seed, batches=batches, workload=spec,
        machine=opteron_8380_machine(),
    )
    return cell_key(cell, fast_forward=True)


#: A valid replacement value for every TaskClassSpec field.
_CLASS_FIELD_CHANGES = {
    "name": "renamed",
    "count": 3,
    "mean_seconds": 2e-3,
    "jitter_sigma": 0.05,
    "drift_sigma": 0.03,
    "miss_intensity": 0.002,
    "mem_stall_fraction": 0.1,
    "phase_amplitude": 0.2,
    "phase_period": 4,
}

#: A valid replacement value for every WorkloadSpec field but ``classes``.
_WORKLOAD_FIELD_CHANGES = {
    "name": "renamed",
    "default_batches": 5,
    "description": "another description",
}


class TestGeneratorKey:
    """A generated cell is keyed by what generates its program: the
    workload spec, the resolved batch count, the seed and the generator
    version. Every one of them must reach the key."""

    def setup_method(self):
        self.spec = WORKLOADS.get("SHA-1").spec()

    def test_every_field_is_covered(self):
        assert set(_CLASS_FIELD_CHANGES) == {
            f.name for f in dataclasses.fields(TaskClassSpec)
        }
        assert set(_WORKLOAD_FIELD_CHANGES) | {"classes"} == {
            f.name for f in dataclasses.fields(WorkloadSpec)
        }

    @pytest.mark.parametrize("field, value", sorted(_WORKLOAD_FIELD_CHANGES.items()))
    def test_workload_field_changes_key(self, field, value):
        changed = dataclasses.replace(self.spec, **{field: value})
        assert _generated_key(changed) != _generated_key(self.spec)

    def test_task_classes_change_key(self):
        fewer = dataclasses.replace(self.spec, classes=self.spec.classes[:1])
        assert _generated_key(fewer) != _generated_key(self.spec)

    @pytest.mark.parametrize("field, value", sorted(_CLASS_FIELD_CHANGES.items()))
    def test_task_class_field_changes_key(self, field, value):
        first = self.spec.classes[0]
        assert getattr(first, field) != value
        changed = dataclasses.replace(
            self.spec,
            classes=(dataclasses.replace(first, **{field: value}),)
            + self.spec.classes[1:],
        )
        assert _generated_key(changed) != _generated_key(self.spec)

    def test_batch_count_and_seed_change_key(self):
        key = _generated_key(self.spec)
        assert _generated_key(self.spec, batches=BATCHES + 1) != key
        assert _generated_key(self.spec, seed=12) != key

    def test_generator_version_changes_key(self, monkeypatch):
        from repro.workloads import generators

        key = _generated_key(self.spec)
        monkeypatch.setattr(
            generators, "GENERATOR_VERSION", generators.GENERATOR_VERSION + 1
        )
        assert _generated_key(self.spec) != key

    def test_default_batch_count_keys_like_the_explicit_one(self):
        default = CellSpec("SHA-1", "cilk", seed=11)
        explicit = CellSpec(
            "SHA-1", "cilk", seed=11, batches=self.spec.default_batches
        )
        assert default.generator() == explicit.generator() == (
            self.spec, self.spec.default_batches
        )
        assert cell_key(default, fast_forward=True) == cell_key(
            explicit, fast_forward=True
        )

    def test_inline_spec_keys_like_the_registered_workload(self):
        inline = WorkloadSpec(
            name=self.spec.name, classes=tuple(self.spec.classes),
            default_batches=self.spec.default_batches,
            description=self.spec.description,
        )
        with SweepEngine(workers=0, cache_dir=None) as engine:
            named = engine.submit(CellSpec("SHA-1", "cilk", seed=11, batches=BATCHES))
            by_spec = engine.submit(
                CellSpec("inline", "cilk", seed=11, batches=BATCHES, workload=inline)
            )
        assert named.key == by_spec.key

    def test_explicit_program_keys_by_content(self):
        program = tuple(benchmark_program("SHA-1", batches=BATCHES, seed=11))
        machine = opteron_8380_machine()

        def key(program):
            cell = CellSpec(
                "SHA-1", "cilk", seed=11, machine=machine, program=program
            )
            return cell_key(cell, fast_forward=True)

        by_content = key(program)
        assert by_content == key(list(program))
        assert by_content != _generated_key(self.spec)

    def test_registering_a_name_again_changes_key_and_program(self):
        name = f"rereg-{uuid.uuid4().hex[:12]}"
        one = WorkloadSpec(name, (TaskClassSpec("a", count=4, mean_seconds=1e-3),))
        two = WorkloadSpec(name, (TaskClassSpec("a", count=6, mean_seconds=1e-3),))
        cell = CellSpec(name, "cilk", seed=3, batches=1)
        try:
            register_workload(name)(lambda: one)
            with SweepEngine(workers=0, cache_dir=None) as engine:
                first = engine.submit(cell).result()
            del WORKLOADS._entries[name]
            register_workload(name)(lambda: two)
            with SweepEngine(workers=0, cache_dir=None) as engine:
                second = engine.submit(cell).result()
        finally:
            WORKLOADS._entries.pop(name, None)
        assert first.key != second.key
        assert (first.result.tasks_executed, second.result.tasks_executed) == (4, 6)


class TestWarmCells:
    """What a warm cell pays for, counted: its key and its lookup."""

    @staticmethod
    def _count(monkeypatch):
        from repro.workloads import generators

        counts = {"programs": 0, "machines": 0}
        generate = generators.generate_program
        post_init = MachineConfig.__post_init__

        def counting_generate(*args, **kwargs):
            counts["programs"] += 1
            return generate(*args, **kwargs)

        def counting_post_init(self):
            counts["machines"] += 1
            post_init(self)

        monkeypatch.setattr(generators, "generate_program", counting_generate)
        monkeypatch.setattr(MachineConfig, "__post_init__", counting_post_init)
        return counts

    @staticmethod
    def _stream(engine, scenarios):
        frames = []
        request = parse_sweep_request({"scenarios": scenarios})
        summary = stream_request(engine, request, frames.append)
        assert summary["ended"] == "end"
        return frames

    def test_a_warm_hit_generates_no_program_and_builds_no_machine(
        self, tmp_path, monkeypatch
    ):
        scenarios = [
            {"workload": name, "policy": policy, "seeds": [5], "batches": 2}
            for name in ("SHA-1", "MD5") for policy in ("cilk", "eewa")
        ]
        from repro.experiments import parallel

        with SweepEngine(cache_dir=tmp_path / "c") as cold:
            self._stream(cold, scenarios)
        parallel._generated_program.cache_clear()  # no program to reuse
        with SweepEngine(cache_dir=tmp_path / "c") as warm:
            counts = self._count(monkeypatch)
            self._stream(warm, scenarios)  # read back from disk
            self._stream(warm, scenarios)  # read again: admitted to the memo
            self._stream(warm, scenarios)  # served by the memo
            assert warm.stats.cache_hits == 12 and warm.stats.memo_hits == 4
        assert counts == {"programs": 0, "machines": 0}

    def test_a_fresh_cell_asked_for_twice_takes_no_memo_slot(self, tmp_path):
        # Two clients sending the same fresh request, one after the other:
        # the first simulates it, the second reads it back from disk once.
        scenarios = [{"workload": "SHA-1", "policy": "eewa", "seeds": [5, 6],
                      "batches": 2}]
        with SweepEngine(cache_dir=tmp_path / "c") as engine:
            self._stream(engine, scenarios)
            self._stream(engine, scenarios)
            assert engine.stats.executed == 2 and engine.stats.cache_hits == 2
            assert not engine._memo

    def test_a_request_on_one_preset_builds_one_machine(self, monkeypatch):
        from repro.scenario import spec as spec_module

        monkeypatch.setattr(spec_module, "_preset_machines", OrderedDict())
        scenarios = [
            {"workload": name, "policy": "cilk", "seeds": [1, 2], "batches": 1,
             "machine": {"num_cores": 8}}
            for name in BENCHMARK_NAMES
        ]
        with SweepEngine(cache_dir=None) as engine:
            counts = self._count(monkeypatch)
            self._stream(engine, scenarios)
            assert engine.stats.executed == 14
        assert counts["machines"] == 1


class TestGeneratedPrograms:
    def test_a_scenario_major_grid_generates_each_program_once(
        self, monkeypatch
    ):
        # More seeds than the program LRU keeps: the second policy's cells
        # reuse the programs their batch generated for the first.
        from repro.experiments import parallel
        from repro.workloads import generators

        generated = []
        generate = generators.generate_program

        def counting(workload, *, batches, seed):
            generated.append(seed)
            return generate(workload, batches=batches, seed=seed)

        monkeypatch.setattr(generators, "generate_program", counting)
        parallel._generated_program.cache_clear()
        seeds = range(1, parallel._PROGRAM_CACHE_ENTRIES + 9)
        cells = [
            CellSpec("SHA-1", policy, seed=seed, batches=1)
            for policy in ("cilk", "cilk-d") for seed in seeds
        ]
        with SweepEngine(workers=0, cache_dir=None) as engine:
            outcomes = engine.run_cells(cells)
            assert engine.stats.executed == len(cells)
        assert sorted(generated) == list(seeds)
        assert all(o.result.tasks_executed > 0 for o in outcomes)


class TestPresetMachines:
    def test_a_preset_builds_one_shared_machine(self):
        machine = MachineSpec(num_cores=12).build()
        assert MachineSpec(num_cores=12).build() is machine
        assert MachineSpec(num_cores=8).build() is not machine
        assert MachineSpec().build() is MachineSpec().build()

    def test_registering_a_preset_again_builds_its_new_machine(self):
        name = f"rereg-{uuid.uuid4().hex[:12]}"
        try:
            register_machine(name)(lambda n: small_test_machine(num_cores=n or 2))
            old = MachineSpec(preset=name).build()
            old_four = MachineSpec(preset=name, num_cores=4).build()
            assert MachineSpec(preset=name).build() is old
            del MACHINES._entries[name]
            register_machine(name)(lambda n: opteron_8380_machine(num_cores=n or 2))
            new = MachineSpec(preset=name).build()
            assert new is not old and new.scale != old.scale
            new_four = MachineSpec(preset=name, num_cores=4).build()
            assert new_four is not old_four and new_four.scale == new.scale
        finally:
            MACHINES._entries.pop(name, None)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"engine_version": ENGINE_VERSION, "result": 1}
        cache.put("ab" + "0" * 62, payload)
        assert cache.get("ab" + "0" * 62) == payload

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("cd" + "0" * 62) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, {"engine_version": ENGINE_VERSION})
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_put_makes_the_shard_directory_it_needs(self, tmp_path):
        root = tmp_path / "fresh"
        cache = ResultCache(root)
        key = "a7" + "0" * 62
        payload = {"engine_version": ENGINE_VERSION, "result": 1}
        cache.put(key, payload)  # in a root that does not exist yet
        assert cache.get(key) == payload
        shutil.rmtree(root / "a7")
        cache.put(key, payload)  # after its shard directory was removed
        assert cache.get(key) == payload
        assert [entry.key for entry in cache.iter_entries()] == [key]


class TestParallelRunner:
    """The cached, deduplicated fan-out, run through SweepEngine.

    The class and test names predate the deletion of the runner classes;
    they are kept so each test keeps its ID.
    """

    def test_matches_serial_runner(self):
        with SweepEngine() as engine:
            out = engine.run(_scenario("SHA-1", "eewa"))
        assert _scalars(out.results) == _scalars(_direct("SHA-1", "eewa"))

    def test_second_sweep_fully_cached(self, tmp_path):
        spec = _scenario("BWC", "cilk")
        with SweepEngine(cache_dir=tmp_path / "c") as first:
            a = first.run(spec)
            assert first.stats.executed == 3
        with SweepEngine(cache_dir=tmp_path / "c") as second:
            b = second.run(spec)
            assert second.stats.executed == 0
            assert second.stats.cache_hits == 3
        assert _scalars(a.results) == _scalars(b.results)
        assert _scalars(b.results) == _scalars(_direct("BWC", "cilk"))

    def test_any_input_change_misses(self, tmp_path):
        with SweepEngine(cache_dir=tmp_path / "c") as warm:
            warm.run(_scenario("BWC", "cilk"))
        for kwargs in (
            {"batches": BATCHES + 1},               # program spec changes
            {"seeds": (99,)},                       # seed changes
            {"machine": MachineSpec(num_cores=8)},  # machine changes
        ):
            with SweepEngine(cache_dir=tmp_path / "c") as probe:
                probe.run(_scenario("BWC", "cilk", **kwargs))
                assert probe.stats.cache_hits == 0, kwargs

    def test_duplicate_cells_simulated_once(self, tmp_path):
        spec = CellSpec("SHA-1", "cilk", seed=11, batches=BATCHES)
        with SweepEngine(workers=0, cache_dir=tmp_path / "cache") as engine:
            outcomes = engine.run_cells([spec, spec])
            assert engine.stats.executed == 1
            assert engine.stats.deduplicated == 1
        (reference,) = _direct("SHA-1", "cilk", seeds=(11,))
        assert _scalars(o.result for o in outcomes) == _scalars([reference] * 2)

    def test_modal_levels_match_serial_and_share_cache(self, tmp_path):
        spec = _scenario("SHA-1", "eewa")
        with SweepEngine(cache_dir=tmp_path / "c") as engine:
            engine.run(spec)
            executed = engine.stats.executed
            levels = engine.modal_eewa_levels(spec)
            # The modal cell is the first-seed EEWA cell — already cached.
            assert engine.stats.executed == executed
        seed = DEFAULT_SEEDS[0]
        machine = opteron_8380_machine()
        reference = simulate(
            benchmark_program("SHA-1", batches=BATCHES, seed=seed),
            EEWAScheduler(), machine, seed=seed,
        )
        assert levels == modal_levels_from_result(
            reference, machine.num_cores, machine
        )

    def test_cache_disabled(self):
        spec = _scenario("BWC", "cilk", seeds=(11,))
        with SweepEngine(cache_dir=None) as engine:
            engine.run(spec)
            engine.run(spec)
            assert engine.stats.executed == 2
            assert engine.stats.cache_hits == 0

    def test_process_pool_matches_in_process(self):
        spec = _scenario("SHA-1", "cilk-d", seeds=(11, 23))
        with SweepEngine(workers=2) as pooled, SweepEngine(workers=0) as inproc:
            a = pooled.run(spec)
            b = inproc.run(spec)
        assert _scalars(a.results) == _scalars(b.results)
        assert _scalars(a.results) == _scalars(
            _direct("SHA-1", "cilk-d", seeds=(11, 23))
        )


class TestFigureParallelPaths:
    def test_parallel_exhibit_closes_its_pool(self, tmp_path):
        """A pooled, cached engine leaves no worker process and no
        dispatcher thread behind once its ``with`` block ends."""

        def dispatchers():
            return {
                t for t in threading.enumerate() if t.name == "sweep-dispatcher"
            }

        children = set(multiprocessing.active_children())
        threads = dispatchers()
        with SweepEngine(workers=2, cache_dir=tmp_path / "c") as engine:
            outcomes = engine.run_grid(
                [_scenario("SHA-1", policy, seeds=(11,)) for policy in ("cilk", "eewa")]
            )
        assert [o.policy for o in outcomes] == ["cilk", "eewa"]
        assert set(multiprocessing.active_children()) <= children
        assert dispatchers() <= threads
