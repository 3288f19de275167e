"""Fig. 9 — severe decline in service availability.

Availability of the legitimate population (served within an SLA
deadline) over an (attack-rate × provisioning-level) surface, with the
flood hammering open-loop at a fixed rate (http-load's behaviour when
the victim slows down).  Throttling under a shrunken budget cuts the
cluster's service capacity, so the availability *cliff* — the rate at
which the system collapses — moves to lower attack rates as the power
budget shrinks.  That cliff shift is the paper's "severe decline in
service availability" under aggressive oversubscription.
"""

from repro import BudgetLevel, CappingScheme, DataCenterSimulation, SimulationConfig
from repro.analysis import print_table
from repro.workloads import TrafficClass, dope_mix

from _support import BUDGETS

SLA_S = 0.5
DURATION = 180.0
RATES = (170.0, 190.0, 210.0, 230.0)
COLLAPSE_BELOW = 0.5


def availability_at(budget, rate):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=budget, seed=3), scheme=CappingScheme()
    )
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(
        mix=dope_mix(),
        rate_rps=rate,
        num_agents=20,
        start_s=30,
        closed_loop=False,
    )
    sim.run(DURATION)
    return sim.availability_report(
        sla_s=SLA_S,
        traffic_class=TrafficClass.NORMAL,
        start_s=60.0,
        end_s=DURATION,
    ).availability


def collapse_rate(row):
    """First swept rate at which availability falls below the cliff."""
    for rate in RATES:
        if row[rate] < COLLAPSE_BELOW:
            return rate
    return float("inf")


def test_fig09_availability(benchmark):
    def sweep():
        return {
            budget: {rate: availability_at(budget, rate) for rate in RATES}
            for budget in BUDGETS
        }

    surface = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_table(
        ["budget"] + [f"{int(r)}rps" for r in RATES] + ["collapse at"],
        [
            (
                budget.value,
                *(surface[budget][r] for r in RATES),
                collapse_rate(surface[budget]),
            )
            for budget in BUDGETS
        ],
        title=f"Fig 9: normal-user availability (SLA {SLA_S * 1e3:.0f}ms) "
        "vs attack rate and power budget",
    )

    cliffs = {b: collapse_rate(surface[b]) for b in BUDGETS}
    # Shape: the availability cliff moves to lower attack rates as the
    # budget shrinks — oversubscription converts power loss into
    # availability loss.
    assert cliffs[BudgetLevel.LOW] <= cliffs[BudgetLevel.MEDIUM]
    assert cliffs[BudgetLevel.MEDIUM] <= cliffs[BudgetLevel.HIGH]
    assert cliffs[BudgetLevel.HIGH] <= cliffs[BudgetLevel.NORMAL]
    # At some swept rate the aggressive budget has collapsed while the
    # fully provisioned cluster still serves nearly everything.
    witness = cliffs[BudgetLevel.LOW]
    assert witness <= RATES[-1]
    assert surface[BudgetLevel.NORMAL][witness] > 0.9
    assert surface[BudgetLevel.LOW][witness] < 0.5
