"""``ENGINE_VERSION`` moves with the golden hashes.

Every cell key hashes :data:`repro.sim.engine.ENGINE_VERSION`, and a
cache entry is served only under the version that wrote it. A change that
alters simulated behaviour re-pins the golden fixtures; without a version
bump beside it, a shared result cache would go on serving results of the
old behaviour. The table pins the version beside the SHA-256 of both
golden files, so neither can move alone.
"""

import hashlib
import pathlib

from repro.sim.engine import ENGINE_VERSION

HERE = pathlib.Path(__file__).parent

PINNED = {
    "ENGINE_VERSION": "eewa-engine-4",
    "golden_hashes.json":
        "ed332aa12962e04171cefbd133fee0d53ec2fea6ff63f86b73b77ac35c791d63",
    "golden_longhorizon.json":
        "174341a3d9902a55d0c848b0e514a00e4067dd23a6d3d23d27b663332158dde8",
}


def test_engine_version_is_pinned_beside_the_golden_hashes():
    current = {"ENGINE_VERSION": ENGINE_VERSION}
    for name in ("golden_hashes.json", "golden_longhorizon.json"):
        current[name] = hashlib.sha256((HERE / name).read_bytes()).hexdigest()
    moved = sorted(name for name in PINNED if current[name] != PINNED[name])
    assert not moved, (
        f"moved: {moved}. If a golden file was re-pinned because simulated "
        "behaviour changed, bump ENGINE_VERSION in repro/sim/engine.py, so "
        "that no cache serves results of the old behaviour, and re-pin "
        "both here."
    )
