"""Extension — auto-scaling amplifies DOPE.

The paper's threat analysis: "current data centers excessively rely on
network load balancer (NLB) and auto-scaling resource allocation to
provide built-in defenses against DDoS attacks … As a result, hostile
requests can generate the maximum possible load on their targeted
servers without prior detection."

This bench quantifies the amplification: the same DOPE flood against
(a) a fixed minimal footprint and (b) an auto-scaled rack.  The scaler
dutifully recruits every gated server for the attacker, multiplying the
rack's power draw — the attacker rents the defender's own elasticity.
"""

import numpy as np

from repro import DataCenterSimulation, NullScheme, SimulationConfig
from repro.analysis import print_table
from repro.cluster import AutoScaler
from repro.workloads import dope_mix

DURATION = 240.0
ATTACK_START = 60.0


def run(autoscale: bool):
    sim = DataCenterSimulation(
        SimulationConfig(seed=5, use_firewall=True), scheme=NullScheme()
    )
    scaler = None
    if autoscale:
        scaler = AutoScaler(
            sim.engine,
            sim.rack,
            sim.nlb,
            min_active=1,
            high_util=0.6,
            low_util=0.2,
            interval_s=5.0,
            cooldown_s=10.0,
        )
        scaler.start()
    else:
        # Fixed minimal footprint: one active server, rest gated.
        for server in sim.rack.servers[1:]:
            server.set_powered(False)
    sim.add_normal_traffic(rate_rps=15)
    sim.add_flood(
        mix=dope_mix(),
        rate_rps=250,
        num_agents=20,
        start_s=ATTACK_START,
    )
    sim.run(DURATION)
    return sim, scaler


def test_ext_autoscaler_amplification(benchmark):
    sims = benchmark.pedantic(
        lambda: {"fixed": run(False), "autoscaled": run(True)},
        rounds=1,
        iterations=1,
    )

    rows = []
    for name, (sim, scaler) in sims.items():
        powers = sim.meter.powers()
        times = sim.meter.times()
        pre = powers[(times > 20) & (times < ATTACK_START)]
        post = powers[times > ATTACK_START + 60]
        rows.append(
            (
                name,
                float(np.mean(pre)),
                float(np.mean(post)),
                float(np.max(powers)),
                scaler.stats.scale_outs if scaler else 0,
            )
        )
    print_table(
        ["arm", "pre-attack W", "attack W", "peak W", "scale-outs"],
        rows,
        title="Extension: auto-scaling amplifies DOPE's power footprint",
    )

    fixed_sim, _ = sims["fixed"]
    scaled_sim, scaler = sims["autoscaled"]
    # The scaler recruited servers for the attacker...
    assert scaler.stats.scale_outs >= 2
    # ...multiplying the power the same flood extracts.
    fixed_peak = fixed_sim.meter.peak_power()
    scaled_peak = scaled_sim.meter.peak_power()
    assert scaled_peak > 2.0 * fixed_peak
    # The fixed footprint bounds the damage to one server's nameplate.
    assert fixed_peak <= 100.0 + 1e-6
    # And the flood still never trips the firewall in either arm.
    assert fixed_sim.firewall.stats.bans == 0
    assert scaled_sim.firewall.stats.bans == 0
