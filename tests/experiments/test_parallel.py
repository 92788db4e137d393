"""Tests for cached, deduplicated cell execution through Session and
SweepEngine: cell keys, the result cache, and the exhibits' parallel paths."""

import dataclasses
import multiprocessing
import shutil
import threading

from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.experiments.outcome import modal_levels_from_result
from repro.experiments.parallel import CellSpec, ResultCache, cell_key
from repro.experiments.sweep import SweepEngine
from repro.machine.topology import opteron_8380_machine
from repro.runtime.task import Batch
from repro.scenario import POLICIES, MachineSpec, ScenarioSpec, Session
from repro.scenario.spec import DEFAULT_SEEDS
from repro.sim.engine import ENGINE_VERSION, simulate
from repro.workloads.benchmarks import BENCHMARK_NAMES, benchmark_program

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
            program=self.program, policy="cilk", machine=self.machine, seed=11
        )
        kwargs.update(overrides)
        return cell_key(
            kwargs.pop("program"), kwargs.pop("policy"),
            kwargs.pop("machine"), kwargs.pop("seed"), **kwargs
        )

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


class TestBlobMemo:
    def test_memo_is_a_bounded_lru(self):
        from repro.experiments.parallel import (
            _BLOB_MEMO_ENTRIES,
            _blob_memo,
            _memo_digest,
        )

        held = [("blob-memo-probe", i) for i in range(_BLOB_MEMO_ENTRIES + 64)]
        digests = [_memo_digest(value) for value in held]
        assert len(_blob_memo) <= _BLOB_MEMO_ENTRIES
        # A live entry is still an identity-verified hit...
        assert _memo_digest(held[-1]) == digests[-1]
        # ...and recomputing an evicted one agrees with the original.
        assert _memo_digest(held[0]) == digests[0]

    def test_list_program_does_not_grow_the_memo(self):
        from repro.experiments import parallel

        machine = opteron_8380_machine()
        program = list(benchmark_program("SHA-1", batches=BATCHES, seed=11))
        key = cell_key(program, "cilk", machine, 11)  # warm machine digest
        before = len(parallel._blob_memo)
        for _ in range(5):
            assert cell_key(program, "cilk", machine, 11) == key
        # The tuple built per call has a one-shot id: it must not be
        # memoised, and the key must match the pre-built-tuple path.
        assert len(parallel._blob_memo) == before
        assert cell_key(tuple(program), "cilk", machine, 11) == key


    def test_memo_holds_no_more_programs_than_the_program_cache(self):
        # A program the generation cache has dropped is never keyed by
        # identity again, so the memo must not keep it alive either.
        from repro.experiments import parallel

        machine = opteron_8380_machine()
        parallel._blob_memo.clear()
        for seed in range(300):
            program = parallel._generated_program("SHA-1", 1, seed)
            cell_key(program, "cilk", machine, seed)
        held = sum(isinstance(value, tuple) for value, _ in parallel._blob_memo.values())
        assert held <= parallel._generated_program.cache_info().maxsize


class TestGridDigests:
    def test_policy_major_grid_digests_each_program_once(self, monkeypatch):
        # 280 cells on 140 programs, all inside the program caches. Each
        # cell used to carry a machine of its own, whose digests filled
        # the memo and evicted every program before its second policy.
        from repro.experiments import parallel

        digested = []
        digest = parallel.digest

        def counting(values):
            value = values[0]
            if isinstance(value, tuple) and value and isinstance(value[0], Batch):
                digested.append(value)
            return digest(values)

        parallel._blob_memo.clear()
        parallel._generated_program.cache_clear()
        monkeypatch.setattr(parallel, "digest", counting)
        grid = [
            ScenarioSpec(workload=name, policy=policy, seeds=tuple(range(20)), batches=2)
            for policy in ("cilk", "eewa")
            for name in BENCHMARK_NAMES
        ]
        with Session() as session:
            session.run_grid(grid)
            assert session.stats.executed == 280
        assert len(digested) == 140
        assert len({id(program) for program in digested}) == 140


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
    """The cached, deduplicated fan-out, run through Session and SweepEngine.

    The class and test names predate the deletion of the runner classes;
    they are kept so each test keeps its ID.
    """

    def test_matches_serial_runner(self):
        with Session() as session:
            out = session.run(_scenario("SHA-1", "eewa"))
        assert _scalars(out.results) == _scalars(_direct("SHA-1", "eewa"))

    def test_second_sweep_fully_cached(self, tmp_path):
        spec = _scenario("BWC", "cilk")
        with Session(cache_dir=tmp_path / "c") as first:
            a = first.run(spec)
            assert first.stats.executed == 3
        with Session(cache_dir=tmp_path / "c") as second:
            b = second.run(spec)
            assert second.stats.executed == 0
            assert second.stats.cache_hits == 3
        assert _scalars(a.results) == _scalars(b.results)
        assert _scalars(b.results) == _scalars(_direct("BWC", "cilk"))

    def test_any_input_change_misses(self, tmp_path):
        with Session(cache_dir=tmp_path / "c") as warm:
            warm.run(_scenario("BWC", "cilk"))
        for kwargs in (
            {"batches": BATCHES + 1},               # program spec changes
            {"seeds": (99,)},                       # seed changes
            {"machine": MachineSpec(num_cores=8)},  # machine changes
        ):
            with Session(cache_dir=tmp_path / "c") as probe:
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
        with Session(cache_dir=tmp_path / "c") as session:
            session.run(spec)
            executed = session.stats.executed
            levels = session.modal_eewa_levels(spec)
            # The modal cell is the first-seed EEWA cell — already cached.
            assert session.stats.executed == executed
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
        with Session(cache_dir=None) as session:
            session.run(spec)
            session.run(spec)
            assert session.stats.executed == 2
            assert session.stats.cache_hits == 0

    def test_process_pool_matches_in_process(self):
        spec = _scenario("SHA-1", "cilk-d", seeds=(11, 23))
        with Session(workers=2) as pooled, Session(workers=0) as inproc:
            a = pooled.run(spec)
            b = inproc.run(spec)
        assert _scalars(a.results) == _scalars(b.results)
        assert _scalars(a.results) == _scalars(
            _direct("SHA-1", "cilk-d", seeds=(11, 23))
        )


class TestFigureParallelPaths:
    def test_fig6_parallel_identical(self, tmp_path):
        from repro.experiments.fig6 import run_fig6

        kwargs = dict(benchmarks=("SHA-1",), batches=BATCHES)
        assert run_fig6(**kwargs) == run_fig6(
            **kwargs, parallel=True, workers=0, cache_dir=str(tmp_path / "c")
        )

    def test_fig7_parallel_identical(self, tmp_path):
        from repro.experiments.fig7 import run_fig7

        kwargs = dict(benchmarks=("SHA-1",), batches=BATCHES, include_phased=False)
        assert run_fig7(**kwargs) == run_fig7(
            **kwargs, parallel=True, workers=0, cache_dir=str(tmp_path / "c")
        )

    def test_fig9_parallel_identical(self, tmp_path):
        from repro.experiments.fig9 import run_fig9

        kwargs = dict(core_counts=(4, 8), batches=BATCHES)
        assert run_fig9(**kwargs) == run_fig9(
            **kwargs, parallel=True, workers=0, cache_dir=str(tmp_path / "c")
        )

    def test_table3_parallel_identical_simulated_columns(self, tmp_path):
        from repro.experiments.table3 import run_table3

        kwargs = dict(benchmarks=("SHA-1",), batches=BATCHES)
        serial = run_table3(**kwargs)
        parallel = run_table3(
            **kwargs, parallel=True, workers=0, cache_dir=str(tmp_path / "c")
        )
        for a, b in zip(serial.rows, parallel.rows):
            # wall-clock column is a real measurement; compare the rest
            assert dataclasses.replace(
                a, measured_wallclock_ms=0.0
            ) == dataclasses.replace(b, measured_wallclock_ms=0.0)

    def test_fig8_parallel_identical(self, tmp_path):
        from repro.experiments.fig8 import run_fig8

        a = run_fig8(batches=BATCHES)
        b = run_fig8(
            batches=BATCHES, parallel=True, cache_dir=str(tmp_path / "c")
        )
        assert a.histograms == b.histograms
        assert a.result.total_joules == b.result.total_joules

    def test_parallel_exhibit_closes_its_pool(self, tmp_path):
        from repro.experiments.fig6 import run_fig6

        def dispatchers():
            return {
                t for t in threading.enumerate() if t.name == "sweep-dispatcher"
            }

        children = set(multiprocessing.active_children())
        threads = dispatchers()
        run_fig6(
            benchmarks=("SHA-1",), batches=BATCHES, seeds=(11,),
            parallel=True, workers=2, cache_dir=str(tmp_path / "c"),
        )
        assert set(multiprocessing.active_children()) <= children
        assert dispatchers() <= threads
