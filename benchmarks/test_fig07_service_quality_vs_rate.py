"""Fig. 7 — service quality gets worse with higher traffic rate.

Under an aggressively power-insufficient budget (Low-PB) with blind
capping, the legitimate users' mean response time and 90th-percentile
tail latency versus the attack rate: past a knee the DVFS reaction to
the DOPE flood multiplies both (paper: 7.4× mean, 8.9× p90).
"""

from repro import BudgetLevel, CappingScheme
from repro.analysis import print_table
from repro.workloads import TrafficClass

from _support import run_attack_scenario

RATES = (25.0, 50.0, 100.0, 200.0, 400.0)
DURATION = 180.0


def measure(rate):
    sim = run_attack_scenario(
        CappingScheme,
        BudgetLevel.LOW,
        attack_rate=rate,
        duration=DURATION,
        seed=3,
    )
    stats = sim.latency_stats(
        traffic_class=TrafficClass.NORMAL, start_s=60.0, end_s=DURATION
    )
    return stats


def test_fig07_service_quality_vs_rate(benchmark):
    def sweep():
        baseline = run_attack_scenario(
            CappingScheme, BudgetLevel.LOW, attack=False, duration=DURATION, seed=3
        ).latency_stats(traffic_class=TrafficClass.NORMAL, start_s=60.0)
        return baseline, {rate: measure(rate) for rate in RATES}

    baseline, stats = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [("no attack", baseline.mean * 1e3, baseline.p90 * 1e3, 1.0, 1.0)]
    for rate in RATES:
        s = stats[rate]
        rows.append(
            (
                f"{int(rate)} rps",
                s.mean * 1e3,
                s.p90 * 1e3,
                s.mean / baseline.mean,
                s.p90 / baseline.p90,
            )
        )
    print_table(
        ["attack rate", "mean ms", "p90 ms", "mean x", "p90 x"],
        rows,
        title="Fig 7: normal-user service quality vs DOPE rate (Low-PB, capping)",
    )

    # Shape: monotone-ish degradation with a knee, reaching several-x.
    means = [stats[r].mean for r in RATES]
    assert means[-1] > means[0]
    assert stats[RATES[-1]].mean > 4.0 * baseline.mean
    assert stats[RATES[-1]].p90 > 3.0 * baseline.p90
    # Below the knee the damage is mild.
    assert stats[RATES[0]].mean < 2.0 * baseline.mean
