#!/usr/bin/env python
"""Deploying Anti-DOPE step by step (paper Section 5).

Walks through the framework's pieces in the order a deployment meets
them:

1. **offline profiling** — build the suspect list from the server
   power model (or from measurements, if you have them);
2. **PDF** — suspect-aware forwarding on the load balancer, isolating
   suspect URLs on one server;
3. **RPM/DPM** — the differentiated power controller, run every slot;
4. measure what legitimate users experienced.

Steps 2 and 3 are one object: ``AntiDopeScheme`` installs PDF over the
given suspect list and runs the RPM/DPM slot.

Run:  python examples/defend_with_anti_dope.py
"""

from repro import AntiDopeScheme, BudgetLevel, DataCenterSimulation, SimulationConfig
from repro.analysis import print_table
from repro.cluster import ServerPowerModel
from repro.core import SuspectList
from repro.workloads import ALL_TYPES, TrafficClass, dope_mix

DURATION = 180.0


def main() -> None:
    print(__doc__)
    config = SimulationConfig(budget_level=BudgetLevel.LOW, seed=11)

    # ------------------------------------------------------------------
    # Step 1 — offline profiling: which URLs can be weaponised?
    # ------------------------------------------------------------------
    power_model = ServerPowerModel(
        nameplate_w=config.nameplate_w,
        idle_fraction=config.idle_fraction,
        alpha=config.alpha,
        num_workers=config.workers_per_server,
    )
    suspect_list = SuspectList.from_model(
        ALL_TYPES, power_model, threshold_fraction=0.70
    )
    print_table(
        ["url", "full-load W", "J/request", "suspect"],
        [
            (
                url,
                suspect_list.profile(url).full_load_power_w,
                suspect_list.profile(url).energy_per_request_j,
                suspect_list.is_suspect(url),
            )
            for url in sorted(
                suspect_list.suspect_urls + suspect_list.innocent_urls
            )
        ],
        title="Step 1: offline power profile -> suspect list",
    )

    # ------------------------------------------------------------------
    # Steps 2 and 3 — PDF isolates suspect URLs on one server; RPM runs
    # the DPM planner every control slot, throttling that server first.
    # ------------------------------------------------------------------
    sim = DataCenterSimulation(
        config,
        scheme=AntiDopeScheme(suspect_pool_size=1, suspect_list=suspect_list),
    )
    policy = sim.scheme.policy
    print(
        "Steps 2-3: PDF installed; suspect pool = servers "
        f"{policy.suspect_server_ids}, innocent pool = servers "
        f"{[s.server_id for s in policy.innocent_pool.members]}; "
        f"RPM/DPM armed ({config.slot_s:g} s slots)\n"
    )

    # ------------------------------------------------------------------
    # Traffic: legitimate users plus a DOPE flood.
    # ------------------------------------------------------------------
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(
        mix=dope_mix(),
        rate_rps=300,
        num_agents=20,
        start_s=40,
    )
    sim.run(DURATION)

    # ------------------------------------------------------------------
    # Step 4 — what did legitimate users see?
    # ------------------------------------------------------------------
    stats = sim.latency_stats(traffic_class=TrafficClass.NORMAL, start_s=60.0)
    counters = sim.obs.counters
    print(f"suspect requests forwarded : {counters.get('network.pdf_suspect_forwarded')}")
    print(f"innocent requests forwarded: {counters.get('network.pdf_innocent_forwarded')}")
    print(
        "control slots / violations : "
        f"{counters.get('power.control_slots')} / "
        f"{counters.get('power.budget_violation_slots')}"
    )
    print(f"peak power                 : {sim.meter.peak_power():.0f} W "
          f"(budget {sim.budget.supply_w:.0f} W)")
    print(f"normal users               : {stats}")


if __name__ == "__main__":
    main()
