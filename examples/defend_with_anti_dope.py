#!/usr/bin/env python
"""Deploying Anti-DOPE step by step (paper Section 5).

Walks through the framework's pieces explicitly instead of using the
pre-wired scheme object:

1. **offline profiling** — build the suspect list from the server
   power model (or from measurements, if you have them);
2. **PDF** — install suspect-aware forwarding on the load balancer;
3. **RPM/DPM** — run the differentiated power controller each slot;
4. measure what legitimate users experienced.

Run:  python examples/defend_with_anti_dope.py
"""

from repro import BudgetLevel, DataCenterSimulation, NullScheme, SimulationConfig
from repro.analysis import print_table
from repro.core import DPMPlanner, PDFPolicy, RequestAwarePowerManager, SuspectList
from repro.sim.events import PRIORITY_CONTROL
from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    WORD_COUNT,
    TrafficClass,
    uniform_mix,
)

DURATION = 180.0


def main() -> None:
    print(__doc__)

    # Infrastructure with *no* managed scheme — we wire the framework
    # by hand to show each moving part.
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=11),
        scheme=NullScheme(),
    )

    # ------------------------------------------------------------------
    # Step 1 — offline profiling: which URLs can be weaponised?
    # ------------------------------------------------------------------
    suspect_list = SuspectList.from_model(
        ALL_TYPES, sim.rack.power_model, threshold_fraction=0.70
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
    # Step 2 — PDF: isolate suspect URLs on one server.
    # ------------------------------------------------------------------
    pdf = PDFPolicy(suspect_list, sim.rack.servers, suspect_pool_size=1, obs=sim.obs)
    sim.nlb.policy = pdf
    print(f"Step 2: PDF installed; suspect pool = servers {pdf.suspect_server_ids}")

    # ------------------------------------------------------------------
    # Step 3 — RPM with the DPM planner, stepped every control slot.
    # ------------------------------------------------------------------
    rpm = RequestAwarePowerManager(
        suspect_pool=pdf.suspect_pool,
        innocent_pool=pdf.innocent_pool,
        budget=sim.budget,
        battery=sim.battery,
        planner=DPMPlanner(sim.rack.ladder.max_level),
        slot_s=sim.config.slot_s,
    )
    sim.engine.every(
        sim.config.slot_s,
        lambda: rpm.step(sim.now),
        priority=PRIORITY_CONTROL,
    )
    print("Step 3: RPM control loop armed (1 s slots)\n")

    # ------------------------------------------------------------------
    # Traffic: legitimate users plus a DOPE flood.
    # ------------------------------------------------------------------
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(
        mix=uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT)),
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
    print(f"control slots / violations : {rpm.stats.slots} / {rpm.stats.violations}")
    print(f"peak power                 : {sim.meter.peak_power():.0f} W "
          f"(budget {sim.budget.supply_w:.0f} W)")
    print(f"normal users               : {stats}")


if __name__ == "__main__":
    main()
