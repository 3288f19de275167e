"""Integration tests asserting the paper's qualitative claims.

These are the calibration targets from DESIGN.md §5: each test pins a
*shape* the paper reports (who wins, in which direction, by a floor on
the factor) rather than an absolute number.  One matrix of simulations
is shared module-wide to keep the suite fast.
"""

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    NullScheme,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.workloads import TrafficClass, dope_mix

ATTACK_START = 30.0
DURATION = 240.0
MEASURE_FROM = 60.0
ATTACK_RATE = 300.0


def run_scenario(scheme_factory, budget, attack=True, seed=7):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=budget, seed=seed), scheme=scheme_factory()
    )
    sim.add_normal_traffic(rate_rps=40)
    if attack:
        sim.add_flood(
            mix=dope_mix(),
            rate_rps=ATTACK_RATE,
            num_agents=20,
            start_s=ATTACK_START,
        )
    sim.run(DURATION)
    return sim


@pytest.fixture(scope="module")
def matrix():
    """Baseline plus each scheme under Low-PB attack."""
    runs = {"baseline": run_scenario(NullScheme, BudgetLevel.NORMAL, attack=False)}
    for name, factory in (
        ("capping", CappingScheme),
        ("shaving", ShavingScheme),
        ("token", TokenScheme),
        ("anti-dope", AntiDopeScheme),
    ):
        runs[name] = run_scenario(factory, BudgetLevel.LOW)
    return runs


def normal_stats(sim):
    return sim.latency_stats(
        traffic_class=TrafficClass.NORMAL, start_s=MEASURE_FROM, end_s=DURATION
    )


class TestBaseline:
    def test_baseline_mean_below_50ms(self, matrix):
        # Fig 16: "all the service response time ... is below 40 ms"
        # under Normal-PB; our queueing model lands in the same decade.
        assert normal_stats(matrix["baseline"]).mean < 0.050

    def test_baseline_power_well_under_nameplate(self, matrix):
        sim = matrix["baseline"]
        assert sim.meter.mean_power() < 0.5 * sim.rack.nameplate_w


class TestDopeDamage:
    def test_capping_inflates_mean_severalfold(self, matrix):
        # Fig 7: DOPE under a power-insufficient budget with blind
        # capping multiplies the mean response time (paper: 7.4x).
        base = normal_stats(matrix["baseline"]).mean
        capped = normal_stats(matrix["capping"]).mean
        assert capped > 4.0 * base

    def test_capping_inflates_tail_severalfold(self, matrix):
        # Fig 7: 8.9x 90th-percentile inflation.
        base = normal_stats(matrix["baseline"]).p90
        capped = normal_stats(matrix["capping"]).p90
        assert capped > 3.0 * base

    def test_attack_violates_budget_without_management(self):
        sim = run_scenario(NullScheme, BudgetLevel.LOW)
        assert sim.meter.peak_power() > sim.budget.supply_w

    def test_attack_stays_under_firewall_radar(self, matrix):
        # The defining DOPE property (Fig 11): the flood that causes
        # all this damage is never detected.
        for name in ("capping", "shaving", "anti-dope"):
            assert matrix[name].firewall.stats.bans == 0


class TestShaving:
    def test_battery_exhausted_by_sustained_peak(self, matrix):
        # Fig 18: Shaving's battery drains "as soon as" under the
        # long DOPE peak.
        assert matrix["shaving"].battery.soc_fraction < 0.15

    def test_shaving_no_better_than_capping_long_run(self, matrix):
        # "batteries do not function well with such a long-duration
        # power peak": after exhaustion Shaving degenerates to Capping.
        shaving = normal_stats(matrix["shaving"]).mean
        capping = normal_stats(matrix["capping"]).mean
        assert shaving > 0.5 * capping


class TestToken:
    def test_token_keeps_latency_short(self, matrix):
        # Fig 16: "Token has far shorter service time than the others."
        token = normal_stats(matrix["token"]).mean
        capping = normal_stats(matrix["capping"]).mean
        assert token < 0.5 * capping

    def test_token_abandons_over_half_the_flood(self, matrix):
        # "it abandons more than 60% of the packages to satisfy the
        # power limit" — measured at the bucket, which sees the whole
        # offered flood.
        assert matrix["token"].scheme.bucket.drop_fraction > 0.5


class TestAntiDopeHeadline:
    def test_mean_response_time_improvement(self, matrix):
        # Abstract: "44% shorter average response time" vs the other
        # power controlling methods.
        anti = normal_stats(matrix["anti-dope"]).mean
        best_conventional = min(
            normal_stats(matrix["capping"]).mean,
            normal_stats(matrix["shaving"]).mean,
        )
        assert anti < (1 - 0.44) * best_conventional

    def test_tail_latency_improvement(self, matrix):
        # Abstract: "improves the 90th percentile tail latency by 68.1%".
        anti = normal_stats(matrix["anti-dope"]).p90
        best_conventional = min(
            normal_stats(matrix["capping"]).p90,
            normal_stats(matrix["shaving"]).p90,
        )
        assert anti < (1 - 0.681) * best_conventional

    def test_anti_dope_keeps_power_capped(self, matrix):
        sim = matrix["anti-dope"]
        powers = sim.meter.powers()
        over = (powers > sim.budget.supply_w).mean()
        assert over < 0.05

    def test_anti_dope_near_baseline_for_innocent_traffic(self, matrix):
        # Fig 15b: normal users' light requests barely degrade.
        base = matrix["baseline"].latency_stats(
            type_name="text-cont", start_s=MEASURE_FROM
        )
        anti = matrix["anti-dope"].latency_stats(
            traffic_class=TrafficClass.NORMAL,
            type_name="text-cont",
            start_s=MEASURE_FROM,
        )
        assert anti.mean < 1.5 * base.mean
