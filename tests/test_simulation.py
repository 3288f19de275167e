"""Integration tests for the DataCenterSimulation facade."""

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    SimulationConfig,
    TokenScheme,
)
from repro.network import NullFirewall, RateLimitFirewall
from repro.trace import SyntheticAlibabaTrace
from repro.workloads import COLLA_FILT, TrafficClass


class TestConstruction:
    def test_default_wiring(self):
        sim = DataCenterSimulation()
        assert sim.rack.num_servers == 4
        assert sim.budget.supply_w == 400.0
        assert sim.battery is not None
        assert isinstance(sim.firewall, RateLimitFirewall)

    def test_firewall_disabled(self):
        sim = DataCenterSimulation(SimulationConfig(use_firewall=False))
        assert isinstance(sim.firewall, NullFirewall)

    def test_battery_disabled(self):
        sim = DataCenterSimulation(SimulationConfig(use_battery=False))
        assert sim.battery is None

    def test_scheme_policy_installed(self):
        sim = DataCenterSimulation(scheme=AntiDopeScheme())
        assert sim.nlb.policy is sim.scheme.policy

    def test_token_filter_installed(self):
        sim = DataCenterSimulation(scheme=TokenScheme())
        assert sim.nlb.admission_filter is sim.scheme.bucket


class TestRunning:
    def test_run_advances_clock(self):
        sim = DataCenterSimulation()
        sim.run(10.0)
        assert sim.now == 10.0
        sim.run(5.0)
        assert sim.now == 15.0

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), -1.0])
    def test_invalid_duration_rejected_before_anything_runs(self, duration_s):
        sim = DataCenterSimulation()
        sim.add_normal_traffic(rate_rps=50.0)
        # A guard stop, so that an unchecked deadline ends the run early
        # (and the test fails) instead of running forever.
        sim.engine.schedule(50.0, sim.engine.stop)
        with pytest.raises(ValueError, match="duration_s"):
            sim.run(duration_s)
        assert sim.now == 0.0
        assert sim.engine.dispatched == 0
        assert len(sim.meter) == 0

    def test_meter_starts_with_run(self):
        sim = DataCenterSimulation()
        sim.run(5.0)
        assert len(sim.meter) >= 5

    def test_scheme_stepped_every_slot(self):
        sim = DataCenterSimulation(scheme=CappingScheme())
        sim.run(10.0)
        assert sim.obs.counters.get("power.control_slots") == 10

    def test_normal_traffic_flows(self):
        sim = DataCenterSimulation()
        sim.add_normal_traffic(rate_rps=50.0)
        sim.run(10.0)
        assert sim.collector.total(TrafficClass.NORMAL) > 300

    def test_flood_windowed(self):
        sim = DataCenterSimulation()
        sim.add_flood(mix=COLLA_FILT, rate_rps=100.0, start_s=5.0, end_s=8.0)
        sim.run(15.0)
        attack = sim.collector.filtered(traffic_class=TrafficClass.ATTACK)
        times = [r.arrival_time_s for r in attack]
        assert min(times) >= 5.0
        assert max(times) <= 8.5  # last in-flight completions

    def test_trace_driven_normal_traffic(self):
        trace = SyntheticAlibabaTrace().generate(8, 600, 30, seed=1)
        sim = DataCenterSimulation()
        sim.add_normal_traffic(rate_rps=20.0, trace=trace, trace_peak_rate_rps=60.0)
        sim.run(30.0)
        assert sim.collector.total(TrafficClass.NORMAL) > 0


class TestDeterminism:
    def test_same_seed_same_results(self):
        def run(seed):
            sim = DataCenterSimulation(
                SimulationConfig(seed=seed, budget_level=BudgetLevel.LOW),
                scheme=CappingScheme(),
            )
            sim.add_normal_traffic(rate_rps=30)
            sim.add_flood(mix=COLLA_FILT, rate_rps=150, start_s=5)
            sim.run(30.0)
            return (
                len(sim.collector),
                sim.latency_stats().mean,
                sim.meter.peak_power(),
            )

        assert run(7) == run(7)

    def test_different_seeds_differ(self):
        def run(seed):
            sim = DataCenterSimulation(SimulationConfig(seed=seed))
            sim.add_normal_traffic(rate_rps=30)
            sim.run(20.0)
            return sim.latency_stats().mean

        assert run(1) != run(2)


class TestResultAccessors:
    def test_latency_stats_windowed(self):
        sim = DataCenterSimulation()
        sim.add_normal_traffic(rate_rps=50)
        sim.run(20.0)
        full = sim.latency_stats()
        late = sim.latency_stats(start_s=10.0)
        assert late.count < full.count

    def test_availability_report(self):
        sim = DataCenterSimulation()
        sim.add_normal_traffic(rate_rps=50)
        sim.run(10.0)
        report = sim.availability_report()
        assert report.offered > 0
        assert report.availability > 0.95

    def test_energy_accounting_window(self):
        sim = DataCenterSimulation()
        sim.run(5.0)
        accountant = sim.start_energy_accounting()
        sim.run(10.0)
        report = accountant.report()
        assert report.duration_s == pytest.approx(10.0)
        assert report.load_energy_j == pytest.approx(4 * 38.0 * 10.0, rel=0.01)

    def test_new_rng_streams_independent(self):
        sim = DataCenterSimulation()
        a = sim.new_rng().random()
        b = sim.new_rng().random()
        assert a != b
