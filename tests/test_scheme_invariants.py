"""Cross-scheme invariants: properties every power scheme must satisfy.

One parametrized net over the full scheme zoo (the Table-2 four plus
the extension arms).  Each invariant encodes something no power
management design may violate regardless of policy: budget compliance
in steady state, recovery after the attack ends, determinism per seed,
and sane accounting.
"""

import numpy as np
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
from repro.core.oracle import OracleScheme
from repro.power import LocalCappingScheme
from repro.workloads import TrafficClass, dope_mix

ATTACK = dope_mix()

MANAGED_SCHEMES = [
    CappingScheme,
    LocalCappingScheme,
    ShavingScheme,
    TokenScheme,
    AntiDopeScheme,
    OracleScheme,
]


def run(scheme_factory, seed=7, duration=150.0, attack_end=None):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed),
        scheme=scheme_factory(),
    )
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(
        mix=ATTACK, rate_rps=250, num_agents=20, start_s=20, end_s=attack_end
    )
    sim.run(duration)
    return sim


@pytest.mark.parametrize("scheme_factory", MANAGED_SCHEMES)
class TestEverySchemeInvariants:
    def test_steady_state_budget_compliance(self, scheme_factory):
        """Grid-side mean power over the attack window fits the budget.

        Battery-backed schemes may draw load power above the budget
        while discharging; the *grid* draw (load minus battery delivery)
        is what the supply constrains.
        """
        sim = run(scheme_factory)
        powers = sim.meter.powers()
        times = sim.meter.times()
        window = powers[(times > 60)]
        grid_mean = float(np.mean(window))
        if sim.battery is not None:
            grid_mean -= sim.battery.delivered_j / (sim.now - 60.0)
        assert grid_mean <= sim.budget.supply_w * 1.02

    def test_deterministic_per_seed(self, scheme_factory):
        a = run(scheme_factory, seed=3, duration=60.0)
        b = run(scheme_factory, seed=3, duration=60.0)
        assert len(a.collector) == len(b.collector)
        assert a.meter.powers().tolist() == b.meter.powers().tolist()
        sa = a.latency_stats(traffic_class=TrafficClass.NORMAL)
        sb = b.latency_stats(traffic_class=TrafficClass.NORMAL)
        assert sa.mean == sb.mean

    def test_recovery_after_attack_ends(self, scheme_factory):
        """Once the flood stops, every scheme returns the rack to
        nominal frequency and power falls back to the quiet level."""
        sim = run(scheme_factory, duration=240.0, attack_end=120.0)
        assert sim.rack.levels() == [12] * 4
        tail_power = sim.meter.powers()[sim.meter.times() > 200].mean()
        assert tail_power < 0.55 * sim.rack.nameplate_w

    def test_normal_traffic_survives(self, scheme_factory):
        """No scheme may starve legitimate traffic outright."""
        sim = run(scheme_factory)
        report = sim.availability_report(
            sla_s=2.0, traffic_class=TrafficClass.NORMAL, start_s=30.0
        )
        assert report.offered > 1000
        assert report.availability > 0.5

    def test_energy_accounting_consistent(self, scheme_factory):
        """Load energy equals the mean power integral within tolerance."""
        sim = run(scheme_factory, duration=100.0)
        energy = sim.rack.total_energy_joules()
        approx = sim.meter.mean_power() * sim.now
        assert energy == pytest.approx(approx, rel=0.05)

    def test_no_firewall_bans_under_dope(self, scheme_factory):
        """The flood is a DOPE flood: invisible regardless of defence."""
        sim = run(scheme_factory, duration=60.0)
        assert sim.firewall.stats.bans == 0


class TestUnmanagedContrast:
    def test_null_scheme_violates_where_managed_do_not(self):
        unmanaged = run(NullScheme)
        powers = unmanaged.meter.powers()
        times = unmanaged.meter.times()
        window = powers[times > 60]
        # The unmanaged rack sits above budget through the attack.
        assert (window > unmanaged.budget.supply_w).mean() > 0.9
