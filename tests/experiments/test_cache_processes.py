"""Several processes sharing one result cache.

Three writer processes and one pruner run against one cache root at
once, the way ``repro sweep``, ``repro serve`` and ``repro cache prune``
may share a directory. Each writer puts its own keys, three times over,
and reads a neighbour's; the pruner evicts entries back-dated past its
age bound. No read may return a payload other than the one put under its
key, and nothing the pruner was not asked to evict may be lost.

Run as a script, this file is one of those processes::

    python test_cache_processes.py ROOT writer INDEX
    python test_cache_processes.py ROOT pruner
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import repro
from repro.experiments import cachectl
from repro.experiments.parallel import ResultCache
from repro.sim.engine import ENGINE_VERSION

WRITERS = 3
KEYS_PER_WRITER = 50
ROUNDS = 3
BACKDATED = 40
SHARDS = ("ab", "cd")


def key_of(owner, index):
    """A 64-hex key, alternating between the two shards."""
    body = hashlib.sha256(f"{owner}/{index}".encode()).hexdigest()
    return SHARDS[index % 2] + body[2:]


def payload_of(key):
    return {"engine_version": ENGINE_VERSION, "key": key,
            "data": bytes.fromhex(key) * 32}


def _wait_for_go(root, role):
    """Start together: report ready, then wait for the parent's signal."""
    (root / f"ready-{role}").touch()
    deadline = time.monotonic() + 60
    while not (root / "go").exists():
        if time.monotonic() > deadline:
            raise TimeoutError("no go signal")
        time.sleep(0.002)


def _writer(root, index):
    cache = ResultCache(root)
    neighbour = f"writer{(index + 1) % WRITERS}"
    wrong = hits = 0
    for _ in range(ROUNDS):
        for i in range(KEYS_PER_WRITER):
            key = key_of(f"writer{index}", i)
            cache.put(key, payload_of(key))
            other = key_of(neighbour, i)
            got = cache.get(other)
            if got is not None:
                hits += 1
                wrong += got != payload_of(other)
    return {"wrong": wrong, "hits": hits}


def _pruner(root):
    rounds = removed = 0
    while True:
        removed += cachectl.prune(root, max_age_days=1).removed
        rounds += 1
        if (root / "stop").exists():
            return {"rounds": rounds, "removed": removed}


def main(argv):
    root, role = pathlib.Path(argv[0]), argv[1]
    name = role if role == "pruner" else f"{role}{argv[2]}"
    _wait_for_go(root, name)
    report = _pruner(root) if role == "pruner" else _writer(root, int(argv[2]))
    print(json.dumps(report))


def _spawn(root, *args):
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, __file__, str(root), *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _report(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def test_writers_and_pruner_share_one_cache(tmp_path):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    stale = [key_of("stale", i) for i in range(BACKDATED)]
    three_days_ago = time.time() - 3 * 86400
    for key in stale:
        cache.put(key, payload_of(key))
        os.utime(cache._path(key), (three_days_ago, three_days_ago))

    procs = [_spawn(root, "writer", str(i)) for i in range(WRITERS)]
    pruner = _spawn(root, "pruner")
    try:
        deadline = time.monotonic() + 60
        while len(list(root.glob("ready-*"))) < WRITERS + 1:
            assert time.monotonic() < deadline, "children never became ready"
            assert all(p.poll() is None for p in (*procs, pruner))
            time.sleep(0.01)
        (root / "go").touch()
        writers = [_report(p) for p in procs]
        (root / "stop").touch()
        pruned = _report(pruner)
    finally:
        for proc in (*procs, pruner):
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    assert sum(w["wrong"] for w in writers) == 0
    assert pruned["rounds"] >= 1
    fresh = ResultCache(root)
    own = [key_of(f"writer{w}", i)
           for w in range(WRITERS) for i in range(KEYS_PER_WRITER)]
    for key in own:
        assert fresh.get(key) == payload_of(key), key
    for key in stale:
        assert not fresh._path(key).exists(), key
    assert cachectl.cache_stats(root).entries == len(own)


if __name__ == "__main__":
    main(sys.argv[1:])
