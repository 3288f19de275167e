"""End-to-end lifecycle: measure → deploy Anti-DOPE → survive DOPE.

The full operator story in one test module: a deployment without the
analytic power model measures its suspect list from rack telemetry —
one canary flood per endpoint on an unmanaged rack, the metered power
fed to :meth:`SuspectList.from_measurements` — deploys Anti-DOPE with
the measured list, and then withstands the same attack the
model-profiled deployment withstands.
"""

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    DataCenterSimulation,
    NullScheme,
    SimulationConfig,
)
from repro.core import SuspectList
from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    WORD_COUNT,
    TrafficClass,
    dope_mix,
)

ATTACK = dope_mix()


def _metered_server_power_w(rtype):
    """Per-server meter samples while a canary flood of *rtype* runs.

    1500 rps open-loop saturates every worker on the heavy endpoints, so
    their samples read full-load power; the light ones stay below the
    suspect threshold at any load.
    """
    sim = DataCenterSimulation(
        SimulationConfig(seed=21, use_firewall=False), scheme=NullScheme()
    )
    sim.add_flood(
        mix=rtype,
        rate_rps=1500.0,
        num_agents=5,
        closed_loop=False,
        label=f"canary-{rtype.name}",
    )
    sim.run(10.0)
    powers = sim.meter.powers()
    # Skip the first half: queues are still filling.
    return powers[len(powers) // 2 :] / sim.config.num_servers


@pytest.fixture(scope="module")
def learned_suspect_list():
    """Telemetry-measured profile of every endpoint."""
    samples = [
        (t.url, float(watts))
        for t in ALL_TYPES
        for watts in _metered_server_power_w(t)
    ]
    return SuspectList.from_measurements(
        samples,
        nameplate_w=SimulationConfig().nameplate_w,
        threshold_fraction=0.70,
    )


def run_defended(suspect_list):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=22),
        scheme=AntiDopeScheme(suspect_list=suspect_list),
    )
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(mix=ATTACK, rate_rps=300, num_agents=20, start_s=30)
    sim.run(180.0)
    return sim


class TestLearnedDefence:
    def test_learned_list_matches_paper_trio(self, learned_suspect_list):
        assert set(learned_suspect_list.suspect_urls) == {
            COLLA_FILT.url,
            K_MEANS.url,
            WORD_COUNT.url,
        }

    def test_learned_defence_caps_power(self, learned_suspect_list):
        sim = run_defended(learned_suspect_list)
        powers = sim.meter.powers()
        assert (powers > sim.budget.supply_w).mean() < 0.05

    def test_learned_defence_matches_offline_defence(self, learned_suspect_list):
        learned = run_defended(learned_suspect_list)
        offline = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=22),
            scheme=AntiDopeScheme(),  # analytic offline profile
        )
        offline.add_normal_traffic(rate_rps=40)
        offline.add_flood(mix=ATTACK, rate_rps=300, num_agents=20, start_s=30)
        offline.run(180.0)

        learned_stats = learned.latency_stats(
            traffic_class=TrafficClass.NORMAL, start_s=60.0
        )
        offline_stats = offline.latency_stats(
            traffic_class=TrafficClass.NORMAL, start_s=60.0
        )
        # Identical classification → identical defence (same seed).
        assert learned_stats.mean == pytest.approx(offline_stats.mean, rel=0.01)
        assert learned_stats.p90 == pytest.approx(offline_stats.p90, rel=0.01)

    def test_attack_confined_by_learned_list(self, learned_suspect_list):
        sim = run_defended(learned_suspect_list)
        suspect_id = sim.scheme.suspect_server_ids[0]
        attack_servers = {
            r.server_id
            for r in sim.collector.filtered(traffic_class=TrafficClass.ATTACK)
            if r.server_id is not None
        }
        assert attack_servers == {suspect_id}
