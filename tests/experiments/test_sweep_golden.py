"""Bit-identity gate for the sweep engine.

Every golden cell — the 30 jittered-benchmark cells pinned in
``tests/sim/golden_hashes.json`` and the 8 long-horizon periodic cells in
``tests/sim/golden_longhorizon.json`` — must hash identically when run
through the :class:`~repro.experiments.sweep.SweepEngine`, both **cold**
(simulated via the queue/chunk path) and **warm** (served from the
on-disk cache by a second engine). The engine is allowed to change where
and when cells run, never what they compute.
"""

import json
import pathlib
import sys

import pytest

from repro.core.eewa import EEWAConfig
from repro.experiments.parallel import CellSpec
from repro.experiments.sweep import SweepEngine
from repro.sim.fingerprint import trace_fingerprint

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "sim"))
import golden_gen  # noqa: E402
import golden_longhorizon_gen as longhorizon_gen  # noqa: E402

GOLDEN = json.loads(golden_gen.FIXTURE.read_text())
LONGHORIZON = json.loads(longhorizon_gen.FIXTURE.read_text())


def golden_cells():
    """The 30 golden cells as (CellSpec, pinned fixture entry) pairs."""
    spawn = tuple(golden_gen.spawn_program())
    pairs = []
    for benchmark, policy, seed in golden_gen.cells():
        spec = CellSpec(
            benchmark=benchmark,
            policy=policy,
            seed=seed,
            batches=(
                None if benchmark == "spawn-tree" else golden_gen.GOLDEN_BATCHES
            ),
            core_levels=(
                tuple(golden_gen.WATS_LEVELS_16) if policy == "wats" else None
            ),
            program=spawn if benchmark == "spawn-tree" else None,
        )
        pairs.append((spec, GOLDEN[f"{benchmark}/{policy}/seed{seed}"]))
    return pairs


def longhorizon_cells():
    """The 8 long-horizon cells as (CellSpec, pinned fixture entry) pairs."""
    program = tuple(
        longhorizon_gen.periodic_program(longhorizon_gen.BATCHES, 4, 8)
    )
    machine = longhorizon_gen.dyadic_test_machine(num_cores=8)
    pairs = []
    for policy, seed in longhorizon_gen.cells():
        spec = CellSpec(
            benchmark="periodic-120",
            policy=policy,
            seed=seed,
            program=program,
            machine=machine,
            core_levels=(
                tuple(longhorizon_gen.WATS_LEVELS_8)
                if policy == "wats" else None
            ),
            eewa_config=(
                EEWAConfig(overhead_model=longhorizon_gen.DYADIC_OVERHEAD)
                if policy == "eewa" else None
            ),
        )
        pairs.append((spec, LONGHORIZON[f"{policy}/seed{seed}"]))
    return pairs


def _assert_matches_fixture(outcomes, pairs):
    for outcome, (spec, want) in zip(outcomes, pairs):
        label = (spec.benchmark, spec.policy, spec.seed)
        # Scalars first for a readable diff; the fingerprint covers the
        # complete observable trace.
        assert outcome.result.total_time == want["total_time"], label
        assert outcome.result.total_joules == want["total_joules"], label
        assert trace_fingerprint(outcome.result) == want["fingerprint"], label
        if "batches_fast_forwarded" in want:
            assert (
                outcome.result.batches_fast_forwarded
                == want["batches_fast_forwarded"]
            ), label


@pytest.mark.parametrize(
    "cells", [golden_cells, longhorizon_cells], ids=["golden", "longhorizon"]
)
def test_sweep_engine_bit_identical_cold_and_warm(cells, tmp_path):
    pairs = cells()
    specs = [spec for spec, _ in pairs]
    cache_dir = tmp_path / "cache"

    # Cold: every cell simulates through the queue/chunk/dedup path.
    with SweepEngine(workers=0, cache_dir=cache_dir) as engine:
        cold = engine.run_cells(specs)
        assert engine.stats.executed == len(specs)  # all distinct
    _assert_matches_fixture(cold, pairs)

    # Warm: a fresh engine over the on-disk cache must serve every cell
    # without simulating anything — and still hash identically.
    with SweepEngine(workers=0, cache_dir=cache_dir) as engine:
        warm = engine.run_cells(specs)
        assert engine.stats.executed == 0
        assert engine.stats.cache_hits == len(specs)
    _assert_matches_fixture(warm, pairs)
