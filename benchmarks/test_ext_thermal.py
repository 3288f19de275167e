"""Extension — DOPE as a cooling attack.

DOPE "targets unconventional layers of resources (e.g., energy, power,
and cooling)".  With the RC thermal model attached, a sustained
high-power flood walks die temperatures into the emergency-throttle
band on an unmanaged rack, while Anti-DOPE's isolation confines the
heat to the suspect pool.  The cooling tax (CRAC power at COP 3) is
reported alongside.
"""

import numpy as np

from repro import AntiDopeScheme, DataCenterSimulation, NullScheme, SimulationConfig
from repro.analysis import print_table
from repro.cluster import ServerThermalModel, ThermalMonitor, cooling_power_w
from repro.workloads import COLLA_FILT, K_MEANS, WORD_COUNT, uniform_mix

DURATION = 300.0


def run(scheme_factory):
    sim = DataCenterSimulation(
        SimulationConfig(seed=6, use_firewall=False), scheme=scheme_factory()
    )
    monitor = ThermalMonitor(
        sim.engine,
        sim.rack,
        t_trip_c=66.0,
        t_resume_c=58.0,
        interval_s=1.0,
        model_factory=lambda: ServerThermalModel(
            r_th_c_per_w=0.45, tau_s=60.0, t_inlet_c=25.0
        ),
    )
    monitor.start()
    sim.add_normal_traffic(rate_rps=30)
    sim.add_flood(
        mix=uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT)),
        rate_rps=300,
        num_agents=20,
        start_s=30,
    )
    sim.run(DURATION)
    return sim, monitor


def test_ext_thermal(benchmark):
    sims = benchmark.pedantic(
        lambda: {"unmanaged": run(NullScheme), "anti-dope": run(AntiDopeScheme)},
        rounds=1,
        iterations=1,
    )

    rows = []
    for name, (sim, monitor) in sims.items():
        temps = np.array(
            [s.temperatures_c for s in monitor.stats.samples[60:]]
        )
        mean_it_power = sim.meter.mean_power()
        rows.append(
            (
                name,
                float(temps.max()),
                float(temps.mean()),
                monitor.stats.emergencies,
                cooling_power_w(mean_it_power),
            )
        )
    print_table(
        ["arm", "peak die C", "mean die C", "emergencies", "cooling W (COP 3)"],
        rows,
        title="Extension: thermal consequences of DOPE",
    )

    unmanaged_sim, unmanaged_mon = sims["unmanaged"]
    anti_sim, anti_mon = sims["anti-dope"]
    # The unmanaged rack hits emergency thermal throttling...
    assert unmanaged_mon.stats.emergencies >= 1
    # ...on servers the flood fully loaded (steady state 25 + 100·0.45 = 70 C).
    assert unmanaged_mon.max_temperature() > 60.0
    # Anti-DOPE never trips an innocent-pool server.
    innocent_ids = set(
        s.server_id for s in anti_sim.scheme.policy.innocent_pool.members
    )
    tripped = set(anti_mon.stats.emergency_server_ids)
    assert not (tripped & innocent_ids)
    # And the cooling tax tracks the IT power saved by isolation.
    assert cooling_power_w(anti_sim.meter.mean_power()) < cooling_power_w(
        unmanaged_sim.meter.mean_power()
    )
