"""Targeted tests for paths not covered by module-focused suites."""

import math

import numpy as np
import pytest

from repro import (
    BudgetLevel,
    DataCenterSimulation,
    NullScheme,
    SimulationConfig,
)
from repro.network import SourceRegistry
from repro.workloads import COLLA_FILT, TrafficClass


class TestSimulationDopeAttacker:
    def test_add_dope_attacker_wires_firewall(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        attacker = sim.add_dope_attacker(
            initial_rate_rps=40.0,
            rate_step_rps=40.0,
            max_rate_rps=200.0,
            num_agents=10,
            adjust_interval_s=10.0,
        )
        assert attacker.firewall is sim.firewall
        assert attacker in sim.attackers
        sim.run(30.0)
        assert attacker.generator.generated > 0
        # Adjustments at t=10, 20 and 30 (deadline events execute).
        assert len(attacker.stats.adjustments) == 3


class TestNormalTrafficValidation:
    def test_peak_below_base_rejected(self):
        from repro.trace import SyntheticAlibabaTrace

        sim = DataCenterSimulation(SimulationConfig(seed=1))
        trace = SyntheticAlibabaTrace().generate(4, 600, 60, seed=0)
        with pytest.raises(ValueError, match="peak"):
            sim.add_normal_traffic(
                rate_rps=50.0, trace=trace, trace_peak_rate_rps=10.0
            )

    def test_invalid_rate_rejected(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        with pytest.raises(ValueError):
            sim.add_normal_traffic(rate_rps=0.0)

    def test_invalid_user_count_rejected(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        with pytest.raises(ValueError):
            sim.add_normal_traffic(rate_rps=10.0, num_users=0)

    def test_custom_mix_respected(self):
        from repro.workloads import RequestMix

        sim = DataCenterSimulation(SimulationConfig(seed=1))
        sim.add_normal_traffic(
            rate_rps=50.0, mix=RequestMix({COLLA_FILT: 1.0})
        )
        sim.run(10.0)
        types = {r.type_name for r in sim.collector.records}
        assert types == {"colla-filt"}


class TestEngineEdgeCases:
    def test_every_stop_before_first_fire(self, engine):
        fired = []
        stop = engine.every(5.0, lambda: fired.append(1))
        stop()
        engine.run(until=20.0)
        assert fired == []

    def test_monitor_priority_sees_workload_of_same_instant(self, engine):
        """A monitor scheduled at the same timestamp as a workload event
        observes the state *after* the workload event ran."""
        from repro.sim.events import PRIORITY_MONITOR

        state = {"x": 0}
        seen = []
        engine.schedule(1.0, lambda: state.update(x=1))
        engine.schedule(1.0, lambda: seen.append(state["x"]), PRIORITY_MONITOR)
        engine.run()
        assert seen == [1]

    def test_dispatched_counter(self, engine):
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.dispatched == 5


class TestSchemeBaseBehaviour:
    def test_null_scheme_never_touches_levels(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
            scheme=NullScheme(),
        )
        sim.add_flood(mix=COLLA_FILT, rate_rps=300, num_agents=20)
        sim.run(30.0)
        assert sim.rack.levels() == [12] * 4
        # And the budget is violated with impunity.
        assert sim.meter.peak_power() > sim.budget.supply_w

    def test_predict_power_for_subset(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        subset = sim.rack.servers[:2]
        predicted = sim.scheme.predict_power_at_level(0, subset)
        # Only the two given servers, throttled to min and idle.
        expected = 2 * sim.rack.power_model.idle_power(0.5)
        assert predicted == pytest.approx(expected)


class TestRegistryInSimulation:
    def test_populations_get_disjoint_ids(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        sim.add_normal_traffic(rate_rps=10.0, num_users=50)
        sim.add_flood(mix=COLLA_FILT, rate_rps=10.0, num_agents=25, label="a")
        sim.add_flood(mix=COLLA_FILT, rate_rps=10.0, num_agents=25, label="b")
        pools = sim.registry.pools
        assert len(pools) == 3
        all_ids = [i for p in pools for i in p.ids]
        assert len(all_ids) == len(set(all_ids)) == 100

    def test_duplicate_labels_rejected(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        sim.add_flood(mix=COLLA_FILT, rate_rps=10.0, label="x")
        with pytest.raises(ValueError):
            sim.add_flood(mix=COLLA_FILT, rate_rps=10.0, label="x")


class TestMeterInterval:
    def test_custom_meter_interval(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1, meter_interval_s=0.25))
        sim.run(2.0)
        assert len(sim.meter) == 9  # t=0 plus 8 quarter-second samples


class TestRegionAnalyzerValidation:
    def test_empty_sweep_rejected(self):
        from repro.analysis import DopeRegionAnalyzer

        analyzer = DopeRegionAnalyzer(window_s=5.0)
        with pytest.raises(ValueError):
            analyzer.sweep([], [10.0])
        with pytest.raises(ValueError):
            analyzer.sweep([COLLA_FILT], [])

    def test_probe_rate_validated(self):
        from repro.analysis import DopeRegionAnalyzer

        analyzer = DopeRegionAnalyzer(window_s=5.0)
        with pytest.raises(ValueError):
            analyzer.probe(COLLA_FILT, rate_rps=0.0)
