"""Regenerate the long-horizon golden fixture (``golden_longhorizon.json``).

Run from the repo root::

    PYTHONPATH=src python tests/sim/golden_longhorizon_gen.py

Unlike ``golden_gen.py`` (jittered paper benchmarks, 3 batches), these
cells are 120 strictly periodic batches on the dyadic test machine — the
shape that actually *engages* steady-state fast-forward. The fixture pins,
per policy × seed, the result scalars, the full trace fingerprint, and the
number of batches replayed, all captured from a fast-forwarding run; the
test additionally re-runs every cell with ``fast_forward=False`` and
requires bitwise agreement, so the pins prove long-horizon replay fidelity
rather than merely determinism.
"""

from __future__ import annotations

import json
import pathlib

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.machine.topology import dyadic_test_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.cilk_d import CilkDScheduler
from repro.runtime.wats import WATSScheduler
from repro.sim.engine import simulate
from repro.sim.fingerprint import result_scalars, trace_fingerprint
from repro.workloads.periodic import periodic_program

FIXTURE = pathlib.Path(__file__).parent / "golden_longhorizon.json"

SEEDS = (11, 23)
POLICIES = ("cilk", "cilk-d", "wats", "eewa")
BATCHES = 120
WATS_LEVELS_8 = [0, 0, 0, 0, 2, 2, 2, 2]
#: Dyadic adjuster costs: keeps every EEWA overhead addition float-exact.
DYADIC_OVERHEAD = OverheadModel(base_seconds=2.0**-11, per_cell_seconds=2.0**-17)


def build_policy(name: str):
    if name == "cilk":
        return CilkScheduler()
    if name == "cilk-d":
        return CilkDScheduler()
    if name == "wats":
        return WATSScheduler(WATS_LEVELS_8)
    return EEWAScheduler(EEWAConfig(overhead_model=DYADIC_OVERHEAD))


def cells():
    for policy in POLICIES:
        for seed in SEEDS:
            yield policy, seed


def run_cell(policy: str, seed: int, *, fast_forward: bool = True):
    result = simulate(
        periodic_program(BATCHES, 4, 8),
        build_policy(policy),
        dyadic_test_machine(num_cores=8),
        seed=seed,
        fast_forward=fast_forward,
    )
    entry = dict(result_scalars(result))
    entry["fingerprint"] = trace_fingerprint(result)
    entry["batches_fast_forwarded"] = result.batches_fast_forwarded
    return entry


def main() -> None:
    fixture = {
        f"{policy}/seed{seed}": run_cell(policy, seed)
        for policy, seed in cells()
    }
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixture)} long-horizon golden cells to {FIXTURE}")


if __name__ == "__main__":
    main()
