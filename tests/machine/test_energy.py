"""Tests for the energy meter."""

import pytest

from repro.errors import SimulationError
from repro.machine.core import CoreState, SimCore
from repro.machine.energy import EnergyMeter
from repro.machine.frequency import opteron_8380_scale
from repro.machine.power import calibrated_power_model


@pytest.fixture
def setup():
    scale = opteron_8380_scale()
    power = calibrated_power_model(scale)
    cores = [SimCore(core_id=i, scale=scale) for i in range(2)]
    return cores, power, EnergyMeter(cores, power)


class TestBilling:
    def test_parked_cores_draw_idle_power(self, setup):
        cores, power, meter = setup
        meter.finalize(1.0)
        assert meter.core_joules() == pytest.approx(2 * power.idle_power())

    def test_spinning_core_draws_busy_power(self, setup):
        cores, power, meter = setup
        cores[0].spin()
        meter.finalize(2.0)
        expected = 2.0 * (power.busy_power(cores[0].frequency) + power.idle_power())
        assert meter.core_joules() == pytest.approx(expected)

    def test_running_equals_spinning_power(self, setup):
        """An idle Cilk worker burns as much as a working one (Section II)."""
        cores, power, meter = setup
        cores[0].spin()
        cores[1].spin()
        cores[1].state = CoreState.RUNNING
        meter.finalize(1.0)
        a, b = meter.accounts
        assert a.joules == pytest.approx(b.joules)

    def test_frequency_change_mid_run_is_piecewise(self, setup):
        cores, power, meter = setup
        cores[0].spin()
        meter.observe(1.0)
        cores[0].begin_transition(3)
        cores[0].complete_transition()
        meter.finalize(2.0)
        expected = (
            1.0 * power.busy_power(opteron_8380_scale().fastest)
            + 1.0 * power.busy_power(opteron_8380_scale().slowest)
            + 2.0 * power.idle_power()  # the second core, parked throughout
        )
        assert meter.core_joules() == pytest.approx(expected)

    def test_baseline_energy_proportional_to_time(self, setup):
        cores, power, meter = setup
        meter.finalize(3.0)
        assert meter.baseline_joules() == pytest.approx(3.0 * power.machine_base_power)
        assert meter.total_joules() == pytest.approx(
            meter.core_joules() + meter.baseline_joules()
        )


class TestAccounting:
    def test_time_conservation_per_core(self, setup):
        cores, _, meter = setup
        cores[0].spin()
        meter.observe(0.5)
        cores[0].state = CoreState.RUNNING
        meter.observe(1.25)
        cores[0].state = CoreState.SPINNING
        meter.finalize(2.0)
        for account in meter.accounts:
            assert account.seconds == pytest.approx(2.0)
            assert sum(account.seconds_by_state.values()) == pytest.approx(2.0)
            assert sum(account.seconds_by_level.values()) == pytest.approx(2.0)

    def test_state_breakdown(self, setup):
        cores, power, meter = setup
        cores[0].spin()
        meter.observe(1.0)
        cores[0].state = CoreState.RUNNING
        meter.finalize(3.0)
        account = meter.accounts[0]
        assert account.seconds_by_state[CoreState.SPINNING] == pytest.approx(1.0)
        assert account.seconds_by_state[CoreState.RUNNING] == pytest.approx(2.0)
        assert meter.spin_joules() == pytest.approx(
            1.0 * power.busy_power(cores[0].frequency)
        )

    def test_seconds_by_level_aggregation(self, setup):
        cores, _, meter = setup
        meter.finalize(1.5)
        assert meter.seconds_by_level() == {0: pytest.approx(3.0)}


class TestPerOperatingPointBilling:
    def test_shared_electrical_frequency_bills_per_type(self):
        """Two core types at the same hertz draw their own wattages.

        Regression guard for the busy-watts memo: a table keyed by bare
        frequency would bill both cores at whichever type's wattage was
        computed first; the table is keyed per operating point.
        """
        from repro.machine.operating_point import homogeneous_space
        from repro.machine.power import PowerModel, VoltageCurve

        freqs = (2.0e9, 1.0e9)
        big_ladder = homogeneous_space(freqs, core_type="big")
        little_ladder = homogeneous_space(freqs, core_type="little")
        curve = VoltageCurve(f_min=1.0e9, f_max=2.0e9, v_min=1.0, v_max=1.0)
        big_power = PowerModel(
            voltage_curve=curve, kappa=4e-9, core_idle_power=1.0,
            machine_base_power=0.0,
        )
        little_power = PowerModel(
            voltage_curve=curve, kappa=1e-9, core_idle_power=0.25,
            machine_base_power=0.0,
        )
        cores = [
            SimCore(core_id=0, scale=big_ladder, core_type="big"),
            SimCore(core_id=1, scale=little_ladder, core_type="little"),
        ]
        meter = EnergyMeter(
            cores, big_power,
            type_powers={"big": big_power, "little": little_power},
        )
        for core in cores:
            core.spin()
        meter.finalize(1.0)
        assert big_power.busy_power(2.0e9) != little_power.busy_power(2.0e9)
        assert meter.accounts[0].joules == pytest.approx(
            big_power.busy_power(2.0e9)
        )
        assert meter.accounts[1].joules == pytest.approx(
            little_power.busy_power(2.0e9)
        )

    def test_types_without_override_fall_back_to_machine_model(self):
        from repro.machine.operating_point import homogeneous_space

        scale = opteron_8380_scale()
        power = calibrated_power_model(scale)
        little_ladder = homogeneous_space((2.5e9,), core_type="little")
        cores = [
            SimCore(core_id=0, scale=scale),
            SimCore(core_id=1, scale=little_ladder, core_type="little"),
        ]
        meter = EnergyMeter(cores, power, type_powers={})
        cores[0].spin()
        cores[1].spin()
        meter.finalize(1.0)
        assert meter.accounts[0].joules == pytest.approx(
            meter.accounts[1].joules
        )


class TestGuards:
    def test_time_cannot_go_backwards(self, setup):
        _, _, meter = setup
        meter.observe(1.0)
        with pytest.raises(SimulationError):
            meter.observe(0.5)

    def test_finalized_meter_rejects_updates(self, setup):
        _, _, meter = setup
        meter.finalize(1.0)
        with pytest.raises(SimulationError):
            meter.observe(2.0)

    def test_zero_interval_is_noop(self, setup):
        _, _, meter = setup
        meter.observe(1.0)
        meter.observe(1.0)
        meter.finalize(1.0)
        assert meter.elapsed == pytest.approx(1.0)

    def test_float_jitter_does_not_rewind_the_clock(self, setup):
        # A tiny negative dt within tolerance is float noise, not time
        # travel; rewinding to it would stretch the *next* interval and
        # over-bill by the jitter. The later instant must be kept.
        cores, power, meter = setup
        meter.observe(1.0)
        cores[0].spin()
        meter.observe(1.0 - 1e-13)
        assert meter.elapsed == 1.0
        meter.finalize(2.0)
        assert meter.accounts[0].joules == pytest.approx(
            1.0 * power.idle_power() + 1.0 * power.busy_power(cores[0].frequency)
        )
