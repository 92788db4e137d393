"""Serve sweeps over HTTP and stream them back — the full service loop.

Launches ``repro serve`` as a subprocess on an ephemeral port, streams an
8-cell grid (2 benchmarks x 2 policies x 2 seeds) through
:class:`~repro.service.client.SweepServiceClient`, verifies every streamed
result is bit-identical to a local in-process run of the same grid, then
stops the server with SIGINT and checks it drains cleanly.

This doubles as the CI serve-smoke gate::

    PYTHONPATH=src python examples/serve_sweeps.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

from repro.experiments.sweep import SweepEngine
from repro.scenario.spec import ScenarioSpec
from repro.service.client import SweepServiceClient
from repro.sim.export import result_to_dict

GRID = [
    {
        "schema": 3,
        "workload": workload,
        "policy": policy,
        "seeds": [11, 23],
        "batches": 3,
    }
    for workload in ("SHA-1", "MD5")
    for policy in ("cilk", "eewa")
]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="serve-sweeps-") as tmp:
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--cache-dir", os.path.join(tmp, "cache"),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        try:
            # The banner names the bound (ephemeral) port:
            #   serving sweeps on http://127.0.0.1:NNNNN (...)
            banner = server.stdout.readline().strip()
            url = banner.split(" on ", 1)[1].split(" ", 1)[0]
            print(f"server up at {url}")

            client = SweepServiceClient(url)
            cells, end = client.run(GRID)
            print(
                f"streamed {end['streamed']}/{end['cells']} cells "
                f"({end['from_cache']} from cache, sources {end['sources']})"
            )
            assert end["cells"] == 8 and len(cells) == 8

            # Bit-identity: the streamed payloads must equal a local run of
            # the same grid, field for field. JSON round-trips floats
            # exactly, so dict equality is the bit-level check.
            with SweepEngine(cache_dir=os.path.join(tmp, "local")) as engine:
                specs = [ScenarioSpec.from_dict(s) for s in GRID]
                local = {
                    (o.spec.benchmark, o.spec.policy, o.spec.seed): o.result
                    for group in engine.run_grid_detailed(specs)
                    for o in group
                }
            for frame in cells:
                key = (frame["benchmark"], frame["policy"], frame["seed"])
                expected = json.loads(json.dumps(result_to_dict(local[key])))
                assert frame["result"] == expected, f"cell {key} diverged"
            print("bit-identity: all 8 streamed cells equal the local run")

            stats = client.stats()
            assert stats["engine"]["cells"] >= 8
            assert stats["server"]["requests"] == 1
        finally:
            server.send_signal(signal.SIGINT)
            exit_code = server.wait(timeout=60)
            tail = server.stdout.read()
        assert exit_code == 0, f"server exited {exit_code}: {tail}"
        assert "server closed" in tail, f"no clean shutdown banner: {tail}"
        print("server drained and closed cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
