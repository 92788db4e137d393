"""The one-pass canonical encoder behind cache keys.

``digest`` walks raw dataclasses, enums and dicts itself; these tests hold
it to the reference form: ``digest([x])`` must equal
``digest([canonical_value(x)])``, and its bytes must be the ones the
two-pass encoding (build the :func:`canonical_value` tree, then write it
with lists walked and everything else ``repr``-ed) produced. The pinned
cell keys were computed by that two-pass encoding (last when cache format
2 keyed generated cells by their generator and the machine lost its
unbilled failed-scan cost); if one moves, every result cache written
before the change goes cold.
"""

import copy
import dataclasses
import enum
from typing import Any, ClassVar

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig
from repro.core.membound import MemoryBoundMode
from repro.experiments.parallel import CellSpec, cell_key
from repro.faults.spec import FaultSpec
from repro.machine.topology import big_little_test_machine, opteron_8380_machine
from repro.scenario.registry import MACHINES, WORKLOADS, spread_levels_for
from repro.scenario.spec import SCENARIO_SCHEMA_VERSION, ScenarioSpec
from repro.sim.fingerprint import canonical_blob, canonical_value, digest
from repro.workloads.generators import generate_program
from repro.workloads.periodic import periodic_program


def two_pass_blob(value: Any) -> bytes:
    """``canonical_blob([canonical_value(value)])`` as the encoder wrote it
    before it handled dataclasses, enums and dicts itself."""
    out: list[str] = []

    def encode(parts):
        for part in parts:
            if isinstance(part, (list, tuple)):
                out.append("[")
                encode(part)
                out.append("]")
            else:
                out.append(repr(part))
            out.append("|")

    encode([canonical_value(value)])
    return "".join(out).encode()


def assert_canonical(value: Any) -> None:
    assert canonical_blob([value]) == two_pass_blob(value)
    assert digest([value]) == digest([canonical_value(value)])


# -- generated values --------------------------------------------------------


class Colour(enum.Enum):
    RED = "red"
    GREEN = 2
    BLUE = (3, "b")


@dataclasses.dataclass(frozen=True)
class Leaf:
    value: Any
    flag: bool = False


@dataclasses.dataclass
class Node:
    KIND: ClassVar[str] = "node"  # not a field: never encoded
    name: str
    left: Any
    right: Any = None
    weights: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(list(Colour))
    | st.just(Empty())
)


def _extend(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=4)
        | st.builds(Leaf, children, st.booleans())
        | st.builds(
            Node,
            st.text(max_size=4),
            children,
            children,
            st.dictionaries(st.sampled_from("abc"), st.floats(), max_size=3),
        )
    )


nested = st.recursive(scalars, _extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(nested)
def test_generated_values_encode_as_their_canonical_form(value):
    assert_canonical(value)


@settings(max_examples=50, deadline=None)
@given(st.lists(nested, max_size=5))
def test_parts_lists_encode_item_by_item(parts):
    assert canonical_blob(parts) == b"".join(
        two_pass_blob(part) for part in parts
    )


@st.composite
def values_with_shared_parts(draw):
    """A value holding one list, tuple or dataclass at two or more places,
    directly and inside dicts, dataclasses and other sequences."""
    shared = draw(
        st.lists(nested, min_size=1, max_size=3)
        | st.lists(nested, min_size=1, max_size=3).map(tuple)
        | st.builds(Leaf, nested, st.booleans())
    )
    body = draw(st.recursive(scalars | st.just(shared), _extend, max_leaves=12))
    return draw(st.permutations([shared, (shared, body), body, Leaf(shared), {"k": shared}]))


@settings(max_examples=200, deadline=None)
@given(values_with_shared_parts())
def test_shared_parts_encode_as_if_unshared(value):
    # The encoder copies the bytes of a sequence it has already written in
    # the same call; the bytes must be those of the unshared tree.
    assert_canonical(value)
    assert canonical_blob([value]) == canonical_blob([copy.deepcopy(value)])


def test_repeated_batches_encode_as_distinct_ones():
    shared = tuple(periodic_program(5, 2, 3))
    rebuilt = tuple(
        dataclasses.replace(batch, specs=tuple(copy.copy(s) for s in batch.specs))
        for batch in shared
    )
    assert len({id(b.specs) for b in shared}) == 1
    assert len({id(b.specs) for b in rebuilt}) == 5
    assert canonical_blob([shared]) == canonical_blob([rebuilt]) == two_pass_blob(shared)


def test_class_objects_are_written_with_repr():
    # canonical_value leaves a dataclass *type* alone (only instances
    # expand); so must the encoder.
    assert_canonical(Leaf)
    assert_canonical([Node, Colour, Colour.RED])


# -- the repository's own inputs ---------------------------------------------


@pytest.mark.parametrize("name", [entry.name for entry in WORKLOADS])
def test_registered_workload_programs(name):
    spec = WORKLOADS.get(name).spec()
    assert_canonical(spec)
    assert_canonical(tuple(generate_program(spec, batches=2, seed=5)))


@pytest.mark.parametrize("name", [entry.name for entry in MACHINES])
def test_registered_machine_presets(name):
    assert_canonical(MACHINES.get(name).build())


@pytest.mark.parametrize(
    "config",
    [
        EEWAConfig(),
        EEWAConfig(
            cc_mode="fluid",
            headroom=0.2,
            memory_bound_mode=MemoryBoundMode.REGRESSION,
            overhead_model=OverheadModel(base_seconds=2.0**-11),
        ),
    ],
)
def test_eewa_configs(config):
    assert_canonical(config)


@pytest.mark.parametrize(
    "faults",
    [FaultSpec(), FaultSpec(dvfs_deny_rate=0.25, stall_rate=0.05, stall_duration_s=1e-4)],
)
def test_fault_specs(faults):
    assert_canonical(faults)


def test_schema_3_scenario_digest_matches_its_canonical_form():
    spec = ScenarioSpec.from_dict(
        {
            "schema": 3,
            "workload": "JE",
            "policy": {"name": "eewa", "params": {"headroom": 0.2, "cc_mode": "fluid"}},
            "machine": {"preset": "big-little-test", "core_types": [["big", 2], ["little", 6]]},
            "seeds": [4, 9],
            "batches": 3,
            "faults": {"stall_rate": 0.1, "stall_duration_s": 0.002},
        }
    )
    assert_canonical(spec)
    # Its resolved content, as a key hashes it: raw parts digest like
    # their canonical forms.
    parts = [
        spec.resolve_workload(), spec.build_machine(), spec.policy.core_levels,
        spec.policy.params, spec.policy.config, spec.seeds, spec.faults,
    ]
    assert digest(["scenario", SCENARIO_SCHEMA_VERSION, *parts]) == digest(
        ["scenario", SCENARIO_SCHEMA_VERSION, *map(canonical_value, parts)]
    )


# -- pinned cell keys ---------------------------------------------------------

OPTERON = opteron_8380_machine()

PINNED_CELLS = {
    "table2-sha1-eewa": (
        CellSpec(benchmark="SHA-1", policy="eewa", seed=7),
        OPTERON,
        "a63ec0465e502bb9432f38d52cecf49931e6e22a85426e42c8b872169692e1ab",
    ),
    "table2-bwc-wats": (
        CellSpec(
            benchmark="BWC", policy="wats", seed=61050,
            core_levels=tuple(spread_levels_for(OPTERON)),
        ),
        OPTERON,
        "5e3252b09265c590d44224b4da3c43ea07bf08978c473d6c260ac8566a67a782",
    ),
    "periodic-eewa": (
        CellSpec(benchmark="periodic", policy="eewa", seed=3, batches=30),
        OPTERON,
        "a638ffb354d8db8e193c36b69ebb5927c7056b980380bd550a2fab7b9c3a2ac0",
    ),
    "big-little-cilk-d": (
        CellSpec(
            benchmark="JE", policy="cilk-d", seed=5, batches=4,
            policy_params=(("idle_grace_s", 0.001),),
        ),
        big_little_test_machine(),
        "693a82ec67cc0bfb17f650953b705e99ad1fa25d7272f7349354038530e03245",
    ),
    "custom-eewa-config": (
        CellSpec(
            benchmark="MD5", policy="eewa", seed=11, batches=5,
            eewa_config=EEWAConfig(
                cc_mode="fluid",
                headroom=0.2,
                memory_bound_mode=MemoryBoundMode.REGRESSION,
                overhead_model=OverheadModel(
                    base_seconds=2.0**-11, per_cell_seconds=2.0**-17
                ),
            ),
        ),
        OPTERON,
        "855d439c7347528645ab352c8755bc9e277e7f80801a9e5355ac727fec38d797",
    ),
    "faults-cilk": (
        CellSpec(
            benchmark="LZW", policy="cilk", seed=2, batches=3,
            faults=FaultSpec(
                dvfs_deny_rate=0.25, stall_rate=0.05, stall_duration_s=1e-4,
                counter_noise_rate=0.1, counter_noise_intensity=0.3,
            ),
        ),
        OPTERON,
        "c83a112eb3ccaa6df5172f7de9a9ef7272e9d0b2eb94c64515154bf668b1b804",
    ),
    "explicit-program-wats": (
        CellSpec(
            benchmark="periodic", policy="wats", seed=0,
            core_levels=(0, 0, 0, 0, 2, 2, 2, 2),
            program=tuple(periodic_program(6, 2, 4)),
        ),
        opteron_8380_machine(num_cores=8),
        "44bf18da07532af395f90076255235472345b8d014aaeb654348fc88d25fa14b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CELLS))
def test_pinned_cell_keys(name):
    """The key the sweep engine computes for each cell (fast-forward on)."""
    spec, machine, pinned = PINNED_CELLS[name]
    key = cell_key(dataclasses.replace(spec, machine=machine), fast_forward=True)
    assert key == pinned
