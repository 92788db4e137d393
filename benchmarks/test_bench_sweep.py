"""Micro-benchmarks of the sweep engine's duplicate-heavy load handling.

A small version of ``benchmarks/sweep_load.py`` shaped for
pytest-benchmark: the same duplicate-heavy load is run cold (fresh cache,
distinct cells simulate once, duplicates coalesce in flight) and warm (a
new engine over the same cache, zero simulations). The report script
derives ``dedup_hit_rate`` and ``speedup_warm_vs_cold`` from the
``extra_info`` these attach.
"""

import shutil
import tempfile

import pytest

from repro.experiments.parallel import CellSpec
from repro.experiments.sweep import SweepEngine

#: Duplicate-heavy load: every submission repeats one of 4 distinct cells.
DISTINCT = [
    CellSpec(benchmark="SHA-1", policy=policy, seed=seed, batches=2)
    for policy in ("cilk", "eewa")
    for seed in (11, 23)
]
REPEATS = 16
LOAD = DISTINCT * REPEATS


def _drain(cache_dir):
    engine = SweepEngine(workers=0, cache_dir=cache_dir)
    try:
        outcomes = [t.result() for t in engine.submit_many(LOAD)]
        return outcomes, engine.stats
    finally:
        engine.close()


def test_bench_sweep_cold(benchmark):
    dirs = []

    def run():
        cache_dir = tempfile.mkdtemp(prefix="bench-sweep-cold-")
        dirs.append(cache_dir)
        return _drain(cache_dir)

    outcomes, stats = benchmark(run)
    for cache_dir in dirs:
        shutil.rmtree(cache_dir, ignore_errors=True)
    assert len(outcomes) == len(LOAD)
    assert stats.executed == len(DISTINCT)
    assert stats.deduplicated == len(LOAD) - len(DISTINCT)
    benchmark.extra_info["submissions"] = stats.cells
    benchmark.extra_info["dedup_hits"] = stats.deduplicated + stats.cache_hits
    benchmark.extra_info["cells_simulated"] = stats.executed


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("bench-sweep-warm"))
    _drain(cache_dir)
    return cache_dir


def test_bench_sweep_warm(benchmark, warm_cache):
    outcomes, stats = benchmark(lambda: _drain(warm_cache))
    assert len(outcomes) == len(LOAD)
    assert stats.executed == 0  # every cell served from the cache
    benchmark.extra_info["submissions"] = stats.cells
    benchmark.extra_info["dedup_hits"] = stats.deduplicated + stats.cache_hits
    benchmark.extra_info["cells_simulated"] = stats.executed
