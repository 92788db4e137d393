"""Pinned state fingerprints for the fast-forward detection inputs.

``state_fingerprint()`` decides whether the engine may arithmetically
replay a batch, so *any* accidental change to what it covers silently
changes which cells fast-forward. These pins freeze the fingerprints of
deterministic reference states (the parity tests in
``tests/sim/test_fast_forward.py`` prove soundness; these prove
stability), and the mutation tests prove the properties the engine relies
on: residual pooled work and RNG stream position must break equality.

Policy fingerprints embed raw ``\\x1f`` separators, so the pins here are
SHA-256 digests *of* the fingerprint strings, not the strings themselves.
"""

import hashlib

from repro.core.adjuster import OverheadModel
from repro.core.eewa import EEWAConfig, EEWAScheduler
from repro.machine.topology import dyadic_test_machine
from repro.runtime.cilk import CilkScheduler
from repro.runtime.cilk_d import CilkDScheduler
from repro.runtime.pools import PoolGrid
from repro.runtime.task import TaskFactory, TaskSpec
from repro.runtime.wats import WATSScheduler
from repro.sim.engine import simulate
from repro.sim.rng import RngStreams
from repro.workloads.periodic import periodic_program

#: Post-run fingerprints (sha256 of the string) of every shipped policy
#: after 5 periodic batches on the dyadic test machine, seed 11.
POLICY_PINS = {
    "cilk": "fcd5ccade14545a6e61b1e63435728602d07385a10d8bdb17d81086ae91c8809",
    "cilk-d": "d5766b3380b9cbc912d7cd566dbc2c76bae18a45efa4750990cb811c8b6522a7",
    "wats": "5f5c54f715b154e169b9da136bbfbfe92e4f112692561f89d185887b3210a608",
    "eewa": "b189fde7f5bb4f3fbbbff617654d9338c6e742ec60a43400c0ff1591f431ae82",
}

GRID_EMPTY_PIN = "54f4e098488c00e31f101cef792bffd5c13da249800871eae7c121dacd20b1a2"
GRID_LOADED_PIN = "a0250541fd01ee3733218f7324a756d0513082e66dc26a73cc8fadf23b5cfc39"
RNG_FRESH_PIN = "4fc82b26aecb47d2868c4efbe3581732a3e7cbcc6c2efb32062c08170a05eeb8"
RNG_DRAWN_PIN = "aaa3e7406318074d01acca92aa4e7acc468959ae86547a069612266ce7ce3332"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_policy(name):
    if name == "cilk":
        return CilkScheduler()
    if name == "cilk-d":
        return CilkDScheduler()
    if name == "wats":
        return WATSScheduler([0, 0, 0, 0, 2, 2, 2, 2])
    return EEWAScheduler(
        EEWAConfig(
            overhead_model=OverheadModel(
                base_seconds=2.0**-11, per_cell_seconds=2.0**-17
            )
        )
    )


def run_policy(name):
    policy = build_policy(name)
    simulate(
        periodic_program(5, 4, 8), policy,
        dyadic_test_machine(num_cores=8), seed=11,
    )
    return policy


class TestPolicyPins:
    def test_fresh_policies_opt_out(self):
        # Before a machine is attached there is no state to replay from.
        for name in POLICY_PINS:
            assert build_policy(name).state_fingerprint() is None

    def test_post_run_fingerprints_pinned(self):
        got = {
            name: _sha(run_policy(name).state_fingerprint())
            for name in POLICY_PINS
        }
        assert got == POLICY_PINS


class TestPoolGridPins:
    def test_empty_grid_pinned(self):
        assert PoolGrid(2, 2).state_fingerprint() == GRID_EMPTY_PIN

    def test_loaded_grid_pinned(self):
        grid = PoolGrid(2, 2)
        factory = TaskFactory()
        grid.push(0, 1, factory.make(TaskSpec("heavy", cpu_cycles=1024.0), 0))
        grid.push(1, 0, factory.make(TaskSpec("light", cpu_cycles=512.0), 0))
        assert grid.state_fingerprint() == GRID_LOADED_PIN

    def test_residual_task_breaks_fingerprint(self):
        # The property the fast-forward detector relies on: a batch that
        # left work queued can never fingerprint-match a clean boundary.
        grid = PoolGrid(2, 2)
        before = grid.state_fingerprint()
        task = TaskFactory().make(TaskSpec("heavy", cpu_cycles=1024.0), 0)
        grid.push(0, 0, task)
        assert grid.state_fingerprint() != before
        grid.pop_local(0, 0)
        assert grid.state_fingerprint() == before


class TestRngPins:
    def test_fresh_streams_pinned(self):
        assert RngStreams(11).state_fingerprint() == RNG_FRESH_PIN

    def test_draw_breaks_fingerprint(self):
        rng = RngStreams(11)
        rng.choice("steal", [1, 2, 3])
        assert rng.state_fingerprint() == RNG_DRAWN_PIN
        assert RNG_DRAWN_PIN != RNG_FRESH_PIN

    def test_equal_positions_equal_fingerprints(self):
        a, b = RngStreams(11), RngStreams(11)
        a.choice("steal", [1, 2, 3])
        b.choice("steal", [1, 2, 3])
        assert a.state_fingerprint() == b.state_fingerprint()


class TestProfilerFingerprintCollisions:
    @staticmethod
    def _profiler(classes):
        from repro.core.profiler import OnlineProfiler, TaskClassStats
        from repro.machine.frequency import opteron_8380_scale

        profiler = OnlineProfiler(scale=opteron_8380_scale())
        for name, count in classes:
            profiler._classes[name] = TaskClassStats(function=name, count=count)
        profiler._tasks_seen = 1
        return profiler

    def test_class_name_field_is_length_prefixed(self):
        # Without the length prefix these two states serialise to the same
        # string: the classes {"a", "b"} joined by "\x1f" vs one class
        # whose *name* embeds the join byte and a forged "a" record
        # ("a:1:0.0:0:0:0\x1fb" + ":1:0.0:0:0:0"). A collision here would
        # let fast-forward replay across genuinely different profiler
        # states.
        split = self._profiler([("a", 1), ("b", 1)])
        forged = self._profiler([("a:1:0.0:0:0:0\x1fb", 1)])
        assert split.state_fingerprint() != forged.state_fingerprint()

    def test_colon_in_name_cannot_shift_fields(self):
        # "a:1" with count 2 vs "a" with count 1 must stay distinct even
        # though the un-prefixed renderings both start with "a:1:".
        assert (
            self._profiler([("a:1", 2)]).state_fingerprint()
            != self._profiler([("a", 1)]).state_fingerprint()
        )


class TestMutationSensitivity:
    def test_policy_fingerprint_sees_residual_pooled_task(self):
        policy = run_policy("eewa")
        before = policy.state_fingerprint()
        task = TaskFactory().make(TaskSpec("heavy", cpu_cycles=1024.0), 0)
        policy._grid.push(0, 0, task)
        assert policy.state_fingerprint() != before

    def test_grouped_cursor_residue_changes_fingerprint(self):
        policy = run_policy("wats")
        before = policy.state_fingerprint()
        group = policy.plan.groups[0]
        policy._rr_cursor[group.index] += 1
        assert policy.state_fingerprint() != before
        # ...but a whole lap round the group is the same residue again.
        policy._rr_cursor[group.index] += len(group.core_ids) - 1
        assert policy.state_fingerprint() == before
