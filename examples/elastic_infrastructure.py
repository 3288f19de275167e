#!/usr/bin/env python
"""Elastic infrastructure vs DOPE: auto-scaling amplification.

An extension scenario built on the paper's observation that clouds
"excessively rely on NLB and auto-scaling resource allocation": the
same DOPE flood against a fixed one-server footprint and against an
auto-scaled rack — the scaler recruits every standby server for the
attacker.

Run:  python examples/elastic_infrastructure.py
"""

import numpy as np

from repro import DataCenterSimulation, NullScheme, SimulationConfig
from repro.analysis import print_table
from repro.cluster import AutoScaler
from repro.workloads import dope_mix

ATTACK = dope_mix()


def autoscaling_demo() -> None:
    print("\n--- auto-scaling amplification ----------------------------")
    rows = []
    for autoscale in (False, True):
        sim = DataCenterSimulation(SimulationConfig(seed=5), scheme=NullScheme())
        if autoscale:
            scaler = AutoScaler(
                sim.engine, sim.rack, sim.nlb, min_active=1,
                high_util=0.6, low_util=0.2,
            )
            scaler.start()
        else:
            scaler = None
            for server in sim.rack.servers[1:]:
                server.set_powered(False)
        sim.add_normal_traffic(rate_rps=15)
        sim.add_flood(mix=ATTACK, rate_rps=250, num_agents=20, start_s=60)
        sim.run(240)
        powers = sim.meter.powers()
        rows.append(
            (
                "auto-scaled" if autoscale else "fixed (1 server)",
                float(np.max(powers)),
                scaler.stats.scale_outs if scaler else 0,
                sim.firewall.stats.bans,
            )
        )
    print_table(
        ["footprint", "peak W", "scale-outs", "firewall bans"],
        rows,
        title="Same flood, two provisioning policies",
    )
    print("The scaler powered on every standby server for the attacker —")
    print("elasticity converts a 100 W nuisance into a rack-scale peak.")


def main() -> None:
    print(__doc__)
    autoscaling_demo()


if __name__ == "__main__":
    main()
