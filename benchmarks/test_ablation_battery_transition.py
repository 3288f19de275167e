"""Ablation — battery as a transition medium.

Anti-DOPE discharges the battery only while a new V/F configuration is
being applied.  This ablation removes that ride-through: during every
reconfiguration slot the grid (not the battery) carries the deficit,
so the budget is transiently violated.  The battery arm should show
(a) transition-slot compliance and (b) negligible total battery use —
that is the design point against Shaving's bulk discharge.

The scenario uses a 3-server suspect pool and a heavier legitimate
load so that the suspect pool at nominal frequency genuinely violates
Low-PB, with the flood switching types to force repeated
reconfigurations.
"""

import numpy as np

from repro import AntiDopeScheme, BudgetLevel, DataCenterSimulation, SimulationConfig
from repro.analysis import print_table
from repro.workloads import COLLA_FILT, K_MEANS, WORD_COUNT

DURATION = 400.0
SWITCH_S = 90.0


class SlotRecorder:
    """Wraps the scheme's control slot to record, per slot, the battery
    watts it delivered and whether it changed any DVFS level."""

    def __init__(self, sim):
        self.sim = sim
        self.battery_w = {}
        self.reconfigurations = 0
        self._step = sim.scheme.step
        sim.scheme.step = self

    def __call__(self):
        sim = self.sim
        delivered_j = sim.battery.delivered_j
        levels = sim.rack.levels()
        self._step()
        self.battery_w[round(sim.now)] = (
            sim.battery.delivered_j - delivered_j
        ) / sim.config.slot_s
        if sim.rack.levels() != levels:
            self.reconfigurations += 1


def run(use_battery):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=9),
        scheme=AntiDopeScheme(
            suspect_pool_size=3, use_battery_transition=use_battery
        ),
    )
    recorder = SlotRecorder(sim)
    sim.add_normal_traffic(rate_rps=60)
    for i, rtype in enumerate((COLLA_FILT, K_MEANS, WORD_COUNT, COLLA_FILT)):
        start = 30.0 + i * SWITCH_S
        sim.add_flood(
            mix=rtype,
            rate_rps=300,
            num_agents=20,
            start_s=start,
            end_s=start + SWITCH_S,
            label=f"dope-{i}",
        )
    sim.run(DURATION)
    return sim, recorder


def grid_violation_slots(sim, recorder):
    """Slots where grid draw (load minus battery delivery) broke budget."""
    count = 0
    for sample in sim.meter.samples:
        grid = sample.power_w - recorder.battery_w.get(round(sample.time_s), 0.0)
        if grid > sim.budget.supply_w + 1e-6:
            count += 1
    return count


def test_ablation_battery_transition(benchmark):
    sims = benchmark.pedantic(
        lambda: {"with battery": run(True), "without battery": run(False)},
        rounds=1,
        iterations=1,
    )

    rows = []
    for name, (sim, recorder) in sims.items():
        rows.append(
            (
                name,
                recorder.reconfigurations,
                sim.battery.delivered_j,
                grid_violation_slots(sim, recorder),
                float(np.max(sim.meter.powers())),
            )
        )
    print_table(
        ["arm", "reconfigs", "battery J", "grid-violation slots", "peak W"],
        rows,
        title="Ablation: battery as transition medium (Low-PB, switching DOPE)",
    )

    (with_b, with_rec), (without_b, without_rec) = (
        sims["with battery"],
        sims["without battery"],
    )
    # Both arms reconfigure (the attack switching forces it).
    assert with_rec.reconfigurations >= 3
    assert without_rec.reconfigurations >= 3
    # The battery arm actually used the battery; the ablation did not.
    assert with_b.battery.delivered_j > 0
    assert without_b.battery.delivered_j == 0
    # Transition cover: the battery arm has fewer grid-side violation
    # slots than the ablation.
    assert grid_violation_slots(with_b, with_rec) <= grid_violation_slots(
        without_b, without_rec
    )
    # And unlike Shaving, total battery use stays tiny (a transition
    # medium, not a shaving store): well under one full-load minute.
    assert with_b.battery.delivered_j < 400.0 * 60.0
