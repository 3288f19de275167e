"""Unit tests for energy accounting."""

import pytest

from repro.metrics import EnergyAccountant, EnergyReport, normalized_energy
from repro.power import Battery


class TestEnergyReport:
    def test_utility_split(self):
        report = EnergyReport(
            duration_s=100.0,
            load_energy_j=10000.0,
            battery_delivered_j=2000.0,
            battery_recharge_grid_j=1000.0,
        )
        assert report.utility_energy_j == pytest.approx(9000.0)

    def test_no_battery_case(self):
        report = EnergyReport(10.0, 500.0, 0.0, 0.0)
        assert report.utility_energy_j == 500.0


class TestEnergyAccountant:
    def test_measures_window_delta_only(self, engine, rack):
        engine.schedule(5.0, lambda: None)
        engine.run()  # 5 s of warm-up energy
        accountant = EnergyAccountant(rack)
        engine.schedule(10.0, lambda: None)
        engine.run()
        report = accountant.report()
        assert report.duration_s == pytest.approx(10.0)
        assert report.load_energy_j == pytest.approx(4 * 38.0 * 10.0)

    def test_battery_flows_tracked(self, engine, rack):
        battery = Battery.for_rack(400.0)
        accountant = EnergyAccountant(rack, battery)
        battery.discharge(100.0, 2.0)
        battery.charge(50.0, 2.0)
        engine.schedule(10.0, lambda: None)
        engine.run()
        report = accountant.report()
        assert report.battery_delivered_j == pytest.approx(200.0)
        assert report.battery_recharge_grid_j == pytest.approx(100.0)

    def test_pre_window_battery_flows_excluded(self, engine, rack):
        battery = Battery.for_rack(400.0)
        battery.discharge(100.0, 1.0)
        accountant = EnergyAccountant(rack, battery)
        engine.schedule(1.0, lambda: None)
        engine.run()
        assert accountant.report().battery_delivered_j == 0.0

    def test_zero_window_rejected(self, engine, rack):
        accountant = EnergyAccountant(rack)
        with pytest.raises(ValueError):
            accountant.report()


class TestNormalizedEnergy:
    def test_exact_budget_consumption_is_one(self):
        report = EnergyReport(100.0, 32000.0, 0.0, 0.0)
        assert normalized_energy(report, supply_w=320.0) == pytest.approx(1.0)

    def test_battery_losses_raise_utility_share(self):
        # Same load energy; the battery path adds recharge losses.
        direct = EnergyReport(100.0, 32000.0, 0.0, 0.0)
        via_battery = EnergyReport(100.0, 32000.0, 5000.0, 5556.0)
        assert normalized_energy(via_battery, 320.0) > normalized_energy(
            direct, 320.0
        )

    def test_invalid_supply_rejected(self):
        report = EnergyReport(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            normalized_energy(report, supply_w=0.0)


class TestBatteryDebt:
    def test_unreplenished_discharge_creates_debt(self):
        report = EnergyReport(100.0, 10000.0, 900.0, 0.0, battery_efficiency=0.9)
        assert report.battery_debt_j == pytest.approx(1000.0)
        assert report.committed_utility_energy_j == pytest.approx(
            10000.0 - 900.0 + 1000.0
        )

    def test_fully_recharged_battery_has_no_debt(self):
        # 900 J delivered; 1000 J drawn from grid stores 900 J back.
        report = EnergyReport(100.0, 10000.0, 900.0, 1000.0, battery_efficiency=0.9)
        assert report.battery_debt_j == 0.0
        assert report.committed_utility_energy_j == report.utility_energy_j

    def test_battery_heavy_scheme_costs_more_committed_energy(self):
        # Same load: riding on the battery defers and inflates the bill.
        direct = EnergyReport(100.0, 10000.0, 0.0, 0.0)
        battery_ride = EnergyReport(100.0, 10000.0, 3000.0, 0.0)
        assert (
            battery_ride.committed_utility_energy_j
            > direct.committed_utility_energy_j
        )
