"""Unit tests for the oracle (perfect-knowledge) reference scheme."""

from repro import BudgetLevel, DataCenterSimulation, SimulationConfig
from repro.core.oracle import GroundTruthFilter, OracleScheme
from repro.network import Request, RequestOutcome
from repro.workloads import COLLA_FILT, TrafficClass


class TestGroundTruthFilter:
    def test_drops_attack_admits_normal(self):
        f = GroundTruthFilter()
        attack = Request(COLLA_FILT, 0, TrafficClass.ATTACK, 0.0)
        normal = Request(COLLA_FILT, 1, TrafficClass.NORMAL, 0.0)
        assert not f.admit(attack, 0.0)
        assert f.admit(normal, 0.0)
        assert f.dropped_attack == 1
        assert f.admitted == 1


class TestOracleScheme:
    def test_filter_installed_on_nlb(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1), scheme=OracleScheme())
        assert sim.nlb.admission_filter is sim.scheme.filter

    def test_attack_never_reaches_servers(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
            scheme=OracleScheme(),
        )
        sim.add_normal_traffic(rate_rps=30)
        sim.add_flood(mix=COLLA_FILT, rate_rps=250, num_agents=20, start_s=10)
        sim.run(90.0)
        attack = sim.collector.filtered(traffic_class=TrafficClass.ATTACK)
        assert attack, "attack traffic was offered"
        assert all(
            r.outcome is RequestOutcome.DROPPED_TOKEN for r in attack
        )
        # Power stays at the legitimate baseline.
        assert sim.meter.peak_power() < 250.0

    def test_normal_traffic_unaffected(self):
        def run(scheme):
            sim = DataCenterSimulation(
                SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
                scheme=scheme,
            )
            sim.add_normal_traffic(rate_rps=30)
            sim.add_flood(mix=COLLA_FILT, rate_rps=250, num_agents=20, start_s=10)
            sim.run(90.0)
            return sim.latency_stats(
                traffic_class=TrafficClass.NORMAL, start_s=30.0
            )

        from repro import NullScheme

        with_oracle = run(OracleScheme())
        # Oracle users see latency as if there were no attack at all:
        # compare to a no-attack baseline.
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
            scheme=NullScheme(),
        )
        sim.add_normal_traffic(rate_rps=30)
        sim.run(90.0)
        baseline = sim.latency_stats(traffic_class=TrafficClass.NORMAL, start_s=30.0)
        assert with_oracle.mean < 1.3 * baseline.mean

    def test_capping_still_active_behind_oracle(self, engine, rack):
        from repro.power import PowerBudget

        scheme = OracleScheme()
        scheme.bind(engine, rack, PowerBudget(210.0), None, 1.0)
        # Even legitimate load must respect the budget.
        from repro.network import Request as Req

        for s in rack.servers:
            for i in range(8):
                s.submit(Req(COLLA_FILT, i, TrafficClass.NORMAL, 0.0))
        scheme.step()
        assert rack.total_power() <= 210.0
