"""Per-segment billing is bit-identical to billing every interval at once.

``EnergyMeter`` records interval lengths and bills each core's run of
intervals at one draw together. :class:`EagerMeter` below is the meter as
it was before that: every observation bills every core. Hypothesis drives
both through the same random sequences of observations and core changes,
and every account field and power-series piece must compare equal with
``==`` — floats bit for bit, dicts in the same key order.
"""

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.machine.energy as energy
from repro.errors import SimulationError
from repro.machine.core import BUSY_STATES, CoreState, SimCore
from repro.machine.energy import CoreEnergyAccount, EnergyMeter
from repro.machine.frequency import opteron_8380_scale
from repro.machine.operating_point import homogeneous_space
from repro.machine.power import calibrated_power_model

BIG = opteron_8380_scale()
LITTLE = homogeneous_space((1.8e9, 1.3e9, 0.8e9), core_type="little")
BIG_POWER = calibrated_power_model(BIG)
LITTLE_POWER = calibrated_power_model(LITTLE, top_core_busy_watts=6.1, core_idle_watts=0.7)
TYPE_POWERS = {"core": BIG_POWER, "little": LITTLE_POWER}


class EagerMeter:
    """Reference: bills every core for every interval when it is observed."""

    def __init__(self, cores, record_series):
        self.cores = cores
        self.last = 0.0
        self.busy = [
            tuple(TYPE_POWERS[c.core_type].busy_power(f) for f in c.scale.levels)
            for c in cores
        ]
        self.idle = [TYPE_POWERS[c.core_type].idle_power() for c in cores]
        self.accounts = [CoreEnergyAccount() for _ in cores]
        self.power_series = [[] for _ in cores] if record_series else None

    def observe(self, now):
        last = self.last
        dt = now - last
        if dt <= 0.0:
            self.last = max(last, now)
            return
        for i, core in enumerate(self.cores):
            state = core.state
            p = self.busy[i][core.level] if state in BUSY_STATES else self.idle[i]
            a = self.accounts[i]
            a.joules += p * dt
            a.seconds += dt
            a.joules_by_state[state] = a.joules_by_state.get(state, 0.0) + p * dt
            a.seconds_by_state[state] = a.seconds_by_state.get(state, 0.0) + dt
            a.seconds_by_level[core.level] = a.seconds_by_level.get(core.level, 0.0) + dt
            if self.power_series is not None:
                series = self.power_series[i]
                if series and series[-1][2] == p and series[-1][1] == last:
                    series[-1] = (series[-1][0], now, p)
                else:
                    series.append((last, now, p))
        self.last = now


def make_cores():
    return [
        SimCore(core_id=0, scale=BIG),
        SimCore(core_id=1, scale=BIG),
        SimCore(core_id=2, scale=LITTLE, core_type="little"),
    ]


def assert_same(meter, eager):
    accounts = meter.accounts
    assert accounts == eager.accounts
    for mine, ref in zip(accounts, eager.accounts):
        assert list(mine.joules_by_state) == list(ref.joules_by_state)
        assert list(mine.seconds_by_level) == list(ref.seconds_by_level)
    assert meter.power_series == eager.power_series
    assert meter.elapsed == eager.last


def apply_change(core, kind, level):
    """Enact one core change if the core's state allows it."""
    state = core.state
    if kind == "start" and state in (CoreState.SPINNING, CoreState.PARKED):
        core.state = CoreState.RUNNING
    elif kind == "finish" and state is CoreState.RUNNING:
        core.state = CoreState.SPINNING
    elif kind == "spin" and state is not CoreState.RUNNING:
        core.spin()
    elif kind == "park" and state is not CoreState.RUNNING:
        core.park()
    elif kind == "begin" and state is not CoreState.RUNNING:
        core.begin_transition(level % core.scale.r)
    elif kind == "complete" and state is CoreState.TRANSITION:
        core.complete_transition()
    elif kind == "level" and state in (CoreState.RUNNING, CoreState.PARKED):
        # The engine retunes running cores and re-levels parked ones in place.
        core.level = level % core.scale.r


steps = st.one_of(
    st.tuples(
        st.just("observe"),
        st.one_of(
            st.sampled_from([0.0, -1e-13, -9e-13]),  # zero and tolerated jitter
            st.floats(min_value=1e-9, max_value=3.0),
        ),
    ),
    st.tuples(
        st.sampled_from(["start", "finish", "spin", "park", "begin", "complete", "level"]),
        st.integers(0, 2),
        st.integers(0, 3),
    ),
    st.just(("read",)),
    # The clock moving on with the gap billed elsewhere (fast-forward replay).
    st.tuples(st.just("skip"), st.floats(min_value=0.0, max_value=3.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(steps, max_size=60),
    st.booleans(),
    st.sampled_from([2, 3, 4096]),
)
def test_segments_bill_exactly_what_eager_billing_does(ops, record_series, settle_every):
    cores = make_cores()
    with mock.patch.object(energy, "_SETTLE_EVERY", settle_every):
        meter = EnergyMeter(
            cores, BIG_POWER, type_powers=TYPE_POWERS, record_series=record_series
        )
        eager = EagerMeter(cores, record_series)
        now = 0.0
        for op in ops:
            if op[0] == "observe":
                # Time only moves forward, apart from the tolerated jitter.
                now = eager.last + op[1]
                meter.observe(now)
                eager.observe(now)
            elif op[0] == "read":
                assert_same(meter, eager)
            elif op[0] == "skip":
                eager.last += op[1]
                meter.billed_through(eager.last)
            else:
                _, index, level = op
                apply_change(cores[index], op[0], level)
        end = eager.last + 1.0
        meter.finalize(end)
        eager.observe(end)
    assert_same(meter, eager)
    assert meter.total_joules() == (
        sum(a.joules for a in eager.accounts) + BIG_POWER.machine_base_power * end
    )


change_kinds = st.sampled_from(["start", "finish", "spin", "park", "begin", "complete", "level"])
#: Clock advance before an observation: none (a second observation at the
#: same instant, as when a finished core starts its next task) or some.
advances = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=3.0))

marked_steps = st.one_of(
    # A change to one core, preceded by an observation at ``now + dt``
    # that names the core, or (``named`` false) names none.
    st.tuples(
        st.just("change"), change_kinds, st.integers(0, 2), st.integers(0, 3),
        advances, st.booleans(),
    ),
    # Several cores changed after one observation that names no core, as
    # when one DVFS request retunes a whole plane.
    st.tuples(
        st.just("several"),
        st.lists(
            st.tuples(change_kinds, st.integers(0, 2), st.integers(0, 3)),
            min_size=1,
            max_size=3,
        ),
        advances,
    ),
    # An observation naming a core that then does not change.
    st.tuples(st.just("name"), st.integers(0, 2), st.floats(min_value=0.0, max_value=3.0)),
    st.just(("read",)),
    st.tuples(st.just("skip"), st.floats(min_value=0.0, max_value=3.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(marked_steps, max_size=60),
    st.booleans(),
    st.sampled_from([2, 3, 4096]),
)
def test_marked_observations_bill_exactly_what_eager_billing_does(
    ops, record_series, settle_every
):
    """The engine's protocol: every core change follows an observation that
    names that core, or names none. The marked meter then compares only
    the named cores, and must still bill what the eager meter bills."""
    cores = make_cores()
    with mock.patch.object(energy, "_SETTLE_EVERY", settle_every):
        meter = EnergyMeter(
            cores, BIG_POWER, type_powers=TYPE_POWERS, record_series=record_series
        )
        eager = EagerMeter(cores, record_series)
        for op in ops:
            if op[0] == "change":
                _, kind, index, level, dt, named = op
                now = eager.last + dt
                meter.observe(now, index if named else None)
                eager.observe(now)
                apply_change(cores[index], kind, level)
            elif op[0] == "several":
                _, changes, dt = op
                now = eager.last + dt
                meter.observe(now)
                eager.observe(now)
                for kind, index, level in changes:
                    apply_change(cores[index], kind, level)
            elif op[0] == "name":
                _, index, dt = op
                now = eager.last + dt
                meter.observe(now, index)
                eager.observe(now)
            elif op[0] == "read":
                assert_same(meter, eager)
            else:
                eager.last += op[1]
                meter.billed_through(eager.last)
        end = eager.last + 1.0
        meter.finalize(end)
        eager.observe(end)
    assert_same(meter, eager)


def test_long_segment_matches_interval_by_interval_billing():
    cores = make_cores()
    cores[0].spin()
    meter = EnergyMeter(cores, BIG_POWER, type_powers=TYPE_POWERS)
    eager = EagerMeter(cores, False)
    t = 0.0
    for k in range(5000):  # crosses the periodic settlement
        t += 1e-3 * (1 + k % 7) / 3
        meter.observe(t)
        eager.observe(t)
        if k == 2500:
            cores[0].state = CoreState.RUNNING
    assert_same(meter, eager)


class TestPickling:
    def test_pickled_state_keeps_the_eager_layout(self):
        cores = make_cores()
        cores[0].spin()
        meter = EnergyMeter(cores, BIG_POWER, type_powers=TYPE_POWERS)
        meter.observe(0.5)
        state = meter.__getstate__()
        assert list(state) == [
            "_cores", "_power", "_last_time", "_finalized",
            "_busy_by_core", "_idle_by_core", "accounts", "power_series",
        ]
        assert state["accounts"][0].joules > 0.0  # settled before pickling

    def test_round_trip_keeps_metering(self):
        cores = make_cores()
        meter = EnergyMeter(cores, BIG_POWER, type_powers=TYPE_POWERS)
        cores[1].spin()
        meter.observe(1.0)
        copy = pickle.loads(pickle.dumps(meter))
        for m in (meter, copy):
            m.finalize(2.0)
        assert copy.accounts == meter.accounts
        assert copy.total_joules() == meter.total_joules()


class TestBilledThrough:
    @pytest.fixture
    def meter(self):
        cores = make_cores()
        for core in cores:
            core.spin()
        return EnergyMeter(cores, BIG_POWER, type_powers=TYPE_POWERS)

    def test_moves_the_clock_without_billing_the_gap(self, meter):
        meter.observe(1.0)
        joules = meter.core_joules()
        meter.billed_through(3.0)
        assert meter.elapsed == 3.0
        assert meter.core_joules() == joules
        meter.observe(4.0)
        assert meter.accounts[0].seconds == 2.0

    def test_final_freezes_the_meter(self, meter):
        meter.billed_through(2.0, final=True)
        with pytest.raises(SimulationError):
            meter.observe(3.0)
        with pytest.raises(SimulationError):
            meter.billed_through(3.0)

    def test_rejects_time_going_backwards(self, meter):
        meter.observe(2.0)
        with pytest.raises(SimulationError):
            meter.billed_through(1.0)
