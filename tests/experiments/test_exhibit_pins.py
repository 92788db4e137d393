"""Every exhibit's numbers, pinned bit for bit at the sizes
``test_exhibits.py`` and ``test_extensions.py`` run them.

Each exhibit's result is flattened to text, with every float written by
``float.hex``, and hashed. A refactor of how an exhibit builds or runs
its scenarios must leave every pin unchanged; a change that moves one
changes what the exhibit reports, and must say so.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.ext_imbalance import run_imbalance_sweep
from repro.experiments.ext_thermal import run_thermal_study
from repro.experiments.fig1 import fig1_rows
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig_hetero import run_fig_hetero
from repro.experiments.table3 import run_table3

SEEDS = (11,)


def _flat(value, skip=frozenset()):
    """``value`` as text: floats by ``float.hex``, dataclasses field by
    field (minus the field names in ``skip``), sequences item by item."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return "{" + ",".join(
            f"{f.name}={_flat(getattr(value, f.name), skip)}"
            for f in dataclasses.fields(value)
            if f.name not in skip
        ) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_flat(item, skip) for item in value) + ")"
    return repr(value)


def _fig8():
    result = run_fig8(batches=6)
    return _flat(result, skip={"result"}) + _flat(
        (result.result.total_joules, result.result.total_time)
    )


#: name -> the exhibit's flattened numbers.
EXHIBITS = {
    "fig1_rows": lambda: _flat(fig1_rows(0.05)),
    "fig6": lambda: _flat(
        run_fig6(benchmarks=("MD5", "SHA-1"), batches=6, seeds=SEEDS)
    ),
    "fig7": lambda: _flat(
        run_fig7(benchmarks=("SHA-1",), seeds=SEEDS, include_phased=False)
    ),
    "fig8": _fig8,
    "fig9": lambda: _flat(run_fig9(core_counts=(4, 16), batches=6, seeds=SEEDS)),
    "fig_hetero": lambda: _flat(
        run_fig_hetero(benchmarks=("SHA-1",), batches=4, seeds=SEEDS)
    ),
    # The wall-clock column is a real timing, so only the simulated
    # columns are pinned.
    "table3": lambda: _flat(
        run_table3(benchmarks=("MD5", "DMC"), batches=8),
        skip={"measured_wallclock_ms"},
    ),
    "thermal": lambda: _flat(
        run_thermal_study(batches=8, policies=("cilk", "eewa"))
    ),
    "imbalance": lambda: _flat(
        run_imbalance_sweep(anchors=(2, 8, 14), batches=6)
    ),
}

#: name -> sha256 of the flattened numbers.
PINS = {
    "fig1_rows": "d8b87c9fc1fa551cecccc9943b543abb16084a6f054e56ffeb0764048d444394",
    "fig6": "3fb32515251ea32565d9bb42be6a0dd2d0c2ab7ceb42da0235c862a92adbdfe8",
    "fig7": "edef1156ae0a46347e3e60d856e8360150409f38f85bb6f21dd58112c91a903c",
    "fig8": "91d4756a6cba445d93d9e38302c6cf847fa0dec7da09adf41e809b1a75f91431",
    "fig9": "f023d5fae6a41333018c1c92e72beb62f7f9e4c18b9056c68f264b63c3f6e069",
    "fig_hetero": "0b13c026f03841bf2fd2c30922832e2a4fab49a94ad29f94b0dbe4380f51d7a2",
    "imbalance": "61260c5755376869d03a71c28be45c71621ca3df2cadec435a2fd3f68018ab9d",
    "table3": "a7d24d14097ee41ef63a6b5959ffc1270b4bf6d6b43c8c56f3b7b3bce3877a4e",
    "thermal": "669b113cc66d88b390cccbf784e6c0d9baf001e4be9cff0a8c08e24dd37bb992",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_exhibit_numbers_are_pinned(name):
    text = EXHIBITS[name]()
    got = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINS[name], f"{name} moved: {text}"
