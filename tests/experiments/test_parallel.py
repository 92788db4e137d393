"""Tests for the parallel cached experiment runner."""

import dataclasses

import pytest

from repro.core.eewa import EEWAConfig
from repro.experiments.parallel import (
    BenchRequest,
    CellSpec,
    ParallelRunner,
    ResultCache,
    cell_key,
)
from repro.experiments.runner import modal_eewa_levels, run_benchmark
from repro.machine.topology import opteron_8380_machine
from repro.sim.engine import ENGINE_VERSION
from repro.workloads.benchmarks import benchmark_program

BATCHES = 3


@pytest.fixture()
def runner(tmp_path):
    return ParallelRunner(workers=0, cache_dir=tmp_path / "cache")


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


class TestParallelRunner:
    def test_matches_serial_runner(self, runner):
        serial = run_benchmark("SHA-1", "eewa", batches=BATCHES)
        out = runner.run_benchmark("SHA-1", "eewa", batches=BATCHES)
        assert [r.total_time for r in out.results] == [
            r.total_time for r in serial.results
        ]
        assert [r.total_joules for r in out.results] == [
            r.total_joules for r in serial.results
        ]

    def test_second_sweep_fully_cached(self, tmp_path):
        first = ParallelRunner(workers=0, cache_dir=tmp_path / "c")
        a = first.run_benchmark("BWC", "cilk", batches=BATCHES)
        assert first.stats.executed == 3

        second = ParallelRunner(workers=0, cache_dir=tmp_path / "c")
        b = second.run_benchmark("BWC", "cilk", batches=BATCHES)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 3
        assert [r.total_joules for r in a.results] == [
            r.total_joules for r in b.results
        ]

    def test_any_input_change_misses(self, tmp_path):
        warm = ParallelRunner(workers=0, cache_dir=tmp_path / "c")
        warm.run_benchmark("BWC", "cilk", batches=BATCHES)
        for kwargs in (
            {"batches": BATCHES + 1},              # program spec changes
            {"batches": BATCHES, "seeds": (99,)},  # seed changes
            {"batches": BATCHES,                   # machine changes
             "machine": opteron_8380_machine(8)},
        ):
            probe = ParallelRunner(workers=0, cache_dir=tmp_path / "c")
            probe.run_benchmark("BWC", "cilk", **kwargs)
            assert probe.stats.cache_hits == 0, kwargs

    def test_duplicate_cells_simulated_once(self, runner):
        spec = CellSpec("SHA-1", "cilk", seed=11, batches=BATCHES)
        outcomes = runner.run_cells([spec, spec])
        assert runner.stats.executed == 1
        assert runner.stats.deduplicated == 1
        assert outcomes[0].result.total_joules == outcomes[1].result.total_joules

    def test_run_many_groups_per_request(self, runner):
        requests = [
            BenchRequest("SHA-1", "cilk", batches=BATCHES, seeds=(11, 23)),
            BenchRequest("BWC", "eewa", batches=BATCHES, seeds=(11,)),
        ]
        out = runner.run_many(requests)
        assert [(o.benchmark, o.policy, len(o.results)) for o in out] == [
            ("SHA-1", "cilk", 2),
            ("BWC", "eewa", 1),
        ]

    def test_modal_levels_match_serial_and_share_cache(self, runner):
        serial_levels = modal_eewa_levels("SHA-1", batches=BATCHES)
        runner.run_benchmark("SHA-1", "eewa", batches=BATCHES)
        executed = runner.stats.executed
        levels = runner.modal_eewa_levels("SHA-1", batches=BATCHES)
        assert levels == serial_levels
        # The modal cell is the seed-11 EEWA cell — already cached.
        assert runner.stats.executed == executed

    def test_cache_disabled(self, tmp_path):
        runner = ParallelRunner(workers=0, cache_dir=None)
        runner.run_benchmark("BWC", "cilk", batches=BATCHES, seeds=(11,))
        runner.run_benchmark("BWC", "cilk", batches=BATCHES, seeds=(11,))
        assert runner.stats.executed == 2
        assert runner.stats.cache_hits == 0

    def test_process_pool_matches_in_process(self, tmp_path):
        pooled = ParallelRunner(workers=2, cache_dir=None)
        inproc = ParallelRunner(workers=0, cache_dir=None)
        a = pooled.run_benchmark("SHA-1", "cilk-d", batches=BATCHES, seeds=(11, 23))
        b = inproc.run_benchmark("SHA-1", "cilk-d", batches=BATCHES, seeds=(11, 23))
        assert [r.total_joules for r in a.results] == [
            r.total_joules for r in b.results
        ]
        assert [r.total_time for r in a.results] == [
            r.total_time for r in b.results
        ]


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
