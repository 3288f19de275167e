"""Failure-injection tests: components degrading mid-run.

Each scenario breaks one piece of the infrastructure and checks the
system's behaviour stays sane (no crashes, conservative fallbacks) —
the situations a production deployment meets on its worst day.
"""

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    ShavingScheme,
    SimulationConfig,
)
from repro.workloads import COLLA_FILT, TrafficClass, dope_mix

ATTACK = dope_mix()


class TestDeadBattery:
    def test_shaving_with_empty_battery_degrades_to_capping(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=2),
            scheme=ShavingScheme(),
        )
        sim.battery.soc_j = 0.0  # dead on arrival
        sim.add_normal_traffic(rate_rps=40)
        sim.add_flood(mix=ATTACK, rate_rps=250, num_agents=20, start_s=10)
        sim.run(90.0)
        # No shaving possible: DVFS must be enforcing the budget.
        # Between-slot load fluctuation allows small transients; the
        # mean must comply and overshoots stay within a few watts.
        assert min(sim.rack.levels()) < sim.rack.ladder.max_level
        powers = sim.meter.powers()[30:]
        assert powers.mean() < sim.budget.supply_w
        assert powers.max() < sim.budget.supply_w * 1.05

    def test_anti_dope_without_battery_still_enforces(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=2, use_battery=False),
            scheme=AntiDopeScheme(),
        )
        sim.add_normal_traffic(rate_rps=40)
        sim.add_flood(mix=ATTACK, rate_rps=250, num_agents=20, start_s=10)
        sim.run(90.0)
        powers = sim.meter.powers()[30:]
        assert (powers > sim.budget.supply_w).mean() < 0.1


class TestFirewallOutage:
    def test_firewall_restores_after_ban_expiry_and_reoffends(self):
        sim = DataCenterSimulation(
            SimulationConfig(
                seed=2,
                firewall_threshold_rps=50.0,
                firewall_poll_s=5.0,
                firewall_ban_s=20.0,
            ),
            scheme=CappingScheme(),
        )
        sim.add_flood(
            mix=COLLA_FILT,
            rate_rps=300,
            num_agents=1,
            closed_loop=False,
            label="recidivist",
        )
        sim.run(120.0)
        # The open-loop source keeps re-offending after every expiry.
        assert sim.firewall.stats.bans >= 3


class TestDegenerateConfigurations:
    def test_zero_queue_capacity_sheds_instead_of_crashing(self):
        sim = DataCenterSimulation(
            SimulationConfig(seed=2, queue_capacity=0), scheme=CappingScheme()
        )
        sim.add_normal_traffic(rate_rps=200)
        sim.run(30.0)
        counts = sim.collector.outcome_counts()
        from repro.network import RequestOutcome

        assert counts[RequestOutcome.COMPLETED] > 0
        # Workers saturate occasionally; overflow is shed, not queued.
        assert sim.rack.total_in_system() <= 4 * 8

    def test_single_server_rack_with_anti_dope_rejected(self):
        # PDF needs at least one innocent server besides the suspect pool.
        sim_config = SimulationConfig(seed=2, num_servers=1)
        with pytest.raises(ValueError, match="innocent"):
            DataCenterSimulation(sim_config, scheme=AntiDopeScheme())

    def test_budget_below_idle_floor_is_survivable(self):
        # Physically unenforceable budget: the schemes bottom out at the
        # deepest throttle and the simulation completes.
        cfg = SimulationConfig(seed=2)
        sim = DataCenterSimulation(cfg, scheme=CappingScheme())
        sim.budget.supply_w = 50.0  # far below the ~140 W idle floor
        sim.add_normal_traffic(rate_rps=30)
        sim.run(30.0)
        assert sim.rack.levels() == [0, 0, 0, 0]
        stats = sim.latency_stats()
        assert stats.count > 0  # service continued, slowly

    def test_attack_before_any_normal_traffic(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=2),
            scheme=AntiDopeScheme(),
        )
        sim.add_flood(mix=ATTACK, rate_rps=250, num_agents=20)
        sim.run(60.0)
        assert sim.collector.total(TrafficClass.ATTACK) > 0
        # No normal population: nothing to corrupt, nothing crashed.
        assert sim.collector.total(TrafficClass.NORMAL) == 0


class TestSchemeSwapMidRun:
    def test_manual_level_overrides_are_corrected_by_controller(self):
        sim = DataCenterSimulation(
            SimulationConfig(seed=2), scheme=CappingScheme()
        )
        sim.add_normal_traffic(rate_rps=20)
        # An operator (or a bug) yanks all servers to minimum mid-run;
        # with a loose budget the controller restores nominal frequency.
        sim.engine.schedule_at(10.0, lambda: sim.rack.set_all_levels(0))
        sim.run(30.0)
        assert sim.rack.levels() == [12, 12, 12, 12]
