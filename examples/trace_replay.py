#!/usr/bin/env python
"""Trace-driven evaluation with the Alibaba container trace.

Generates (or loads) an Alibaba-2018-style cluster trace, drives the
legitimate population with its diurnal load curve, and runs the full
scheme comparison of the paper's Section 6 over a multi-hour window
compressed into simulation time.

To use the *real* trace, download ``machine_usage.csv`` from
https://github.com/alibaba/clusterdata (v2018) and pass its path:

    python examples/trace_replay.py --trace /path/to/machine_usage.csv
"""

import argparse

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis import print_table
from repro.trace import SyntheticAlibabaTrace, load_machine_usage
from repro.workloads import TrafficClass, dope_mix

DURATION = 300.0
ATTACK_START = 60.0


def get_trace(path):
    if path:
        print(f"Loading real Alibaba trace from {path} ...")
        return load_machine_usage(path, interval_s=30.0, max_machines=128)
    print("Generating synthetic Alibaba-2018-like trace "
          "(pass --trace to use the real one)...")
    return SyntheticAlibabaTrace().generate(
        num_machines=64, duration_s=12 * 3600, interval_s=30.0, seed=2024
    )


def run(scheme_factory, trace, budget):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=budget, seed=5), scheme=scheme_factory()
    )
    sim.add_normal_traffic(
        rate_rps=25, trace=trace, trace_peak_rate_rps=60, num_users=300
    )
    sim.add_flood(
        mix=dope_mix(),
        rate_rps=300,
        num_agents=20,
        start_s=ATTACK_START,
    )
    sim.run(DURATION)
    stats = sim.latency_stats(
        traffic_class=TrafficClass.NORMAL, start_s=ATTACK_START + 30
    )
    avail = sim.availability_report(
        sla_s=0.5, traffic_class=TrafficClass.NORMAL, start_s=ATTACK_START + 30
    )
    return stats, avail, sim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default=None, help="path to machine_usage.csv")
    parser.add_argument(
        "--budget",
        choices=[level.name.lower() for level in BudgetLevel],
        default="low",
    )
    args = parser.parse_args()

    trace = get_trace(args.trace)
    print(f"Trace: {trace.summary()}\n")
    budget = BudgetLevel[args.budget.upper()]

    rows = []
    for name, factory in (
        ("capping", CappingScheme),
        ("shaving", ShavingScheme),
        ("token", TokenScheme),
        ("anti-dope", AntiDopeScheme),
    ):
        print(f"running {name} @ {budget.value} ...")
        stats, avail, sim = run(factory, trace, budget)
        rows.append(
            (
                name,
                stats.mean * 1e3,
                stats.p90 * 1e3,
                stats.p95 * 1e3,
                avail.availability,
                sim.meter.peak_power(),
            )
        )
    print_table(
        ["scheme", "mean ms", "p90 ms", "p95 ms", "availability", "peak W"],
        rows,
        title=f"Trace-driven scheme comparison under DOPE ({budget.value})",
    )


if __name__ == "__main__":
    main()
