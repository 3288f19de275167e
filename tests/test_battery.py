"""Unit tests for the UPS battery model."""

import pytest

from repro.power import Battery


def make_battery(**kwargs):
    defaults = dict(
        capacity_j=1000.0, max_discharge_w=100.0, max_charge_w=50.0,
        efficiency=0.9, initial_soc=1.0,
    )
    defaults.update(kwargs)
    return Battery(**defaults)


class TestSizing:
    def test_for_rack_paper_sizing(self):
        # 2 minutes at full rack load (paper Section 6.4).
        battery = Battery.for_rack(400.0, sustain_s=120.0)
        assert battery.capacity_j == pytest.approx(400.0 * 120.0)
        assert battery.max_discharge_w == pytest.approx(400.0)

    def test_initial_soc(self):
        assert make_battery(initial_soc=0.5).soc_fraction == pytest.approx(0.5)


class TestDischarge:
    def test_delivers_requested_power(self):
        battery = make_battery()
        delivered = battery.discharge(50.0, dt=2.0)
        assert delivered == pytest.approx(50.0)
        assert battery.soc_j == pytest.approx(900.0)
        assert battery.delivered_j == pytest.approx(100.0)

    def test_rate_limited(self):
        battery = make_battery(max_discharge_w=30.0)
        assert battery.discharge(100.0, dt=1.0) == pytest.approx(30.0)

    def test_energy_limited(self):
        battery = make_battery(capacity_j=50.0)
        delivered = battery.discharge(100.0, dt=1.0)
        assert delivered == pytest.approx(50.0)
        assert battery.empty

    def test_empty_battery_delivers_nothing(self):
        battery = make_battery(initial_soc=0.0)
        assert battery.discharge(10.0, dt=1.0) == 0.0

    def test_zero_request_is_noop(self):
        battery = make_battery()
        assert battery.discharge(0.0, dt=1.0) == 0.0
        assert battery.soc_fraction == 1.0

    def test_cycle_counting(self):
        battery = make_battery()
        battery.discharge(10.0, 1.0)
        battery.discharge(10.0, 1.0)  # same cycle, contiguous
        assert battery.discharge_cycles == 1
        battery.idle()
        battery.discharge(10.0, 1.0)  # new cycle
        assert battery.discharge_cycles == 2


class TestCharge:
    def test_accepts_power_with_efficiency_loss(self):
        battery = make_battery(initial_soc=0.0)
        accepted = battery.charge(40.0, dt=1.0)
        assert accepted == pytest.approx(40.0)
        assert battery.soc_j == pytest.approx(40.0 * 0.9)
        assert battery.absorbed_grid_j == pytest.approx(40.0)

    def test_rate_limited(self):
        battery = make_battery(initial_soc=0.0)
        assert battery.charge(500.0, dt=1.0) == pytest.approx(50.0)

    def test_full_battery_accepts_nothing(self):
        battery = make_battery()
        assert battery.charge(10.0, dt=1.0) == 0.0

    def test_never_overfills(self):
        battery = make_battery(capacity_j=100.0, initial_soc=0.95)
        battery.charge(50.0, dt=1.0)
        assert battery.soc_j <= battery.capacity_j + 1e-9

    def test_charge_interrupts_discharge_cycle(self):
        battery = make_battery()
        battery.discharge(10.0, 1.0)
        battery.charge(10.0, 1.0)
        battery.discharge(10.0, 1.0)
        assert battery.discharge_cycles == 2


class TestValidation:
    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            make_battery(efficiency=0.0)
        with pytest.raises(ValueError):
            make_battery(efficiency=1.0)

    def test_negative_power_rejected(self):
        battery = make_battery()
        with pytest.raises(ValueError):
            battery.discharge(-1.0, 1.0)
        with pytest.raises(ValueError):
            battery.charge(-1.0, 1.0)

    def test_zero_dt_rejected(self):
        battery = make_battery()
        with pytest.raises(ValueError):
            battery.discharge(1.0, 0.0)
