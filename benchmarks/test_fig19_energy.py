"""Fig. 19 — energy consumption per scheme and provisioning level.

Total consumed energy normalised to the supplied utility energy, with
the deferred battery recharge included (a peak ridden on stored energy
still has to be bought back, with conversion loss).  Paper shapes:

* in the baseline (Normal-PB) case all schemes consume the same energy;
* under attack, Capping consumes least — it blindly slows everything
  down (at the service-quality cost of Figs 16/17);
* Anti-DOPE uses less energy than Shaving thanks to its lower
  dependency on the battery.
"""

from repro import BudgetLevel
from repro.analysis import print_table
from repro.metrics import EnergyReport

from _support import BUDGETS, SCHEMES, run_attack_scenario, scheme_budget_matrix


def report_for(sim):
    battery = sim.battery
    return EnergyReport(
        duration_s=sim.now,
        load_energy_j=sim.rack.total_energy_joules(),
        battery_delivered_j=battery.delivered_j if battery else 0.0,
        battery_recharge_grid_j=battery.absorbed_grid_j if battery else 0.0,
        battery_efficiency=battery.efficiency if battery else 0.9,
    )


def test_fig19_energy(benchmark):
    def build():
        matrix = scheme_budget_matrix()
        # Fig 19's baseline: no attack, fully provisioned — every scheme
        # does identical work there.
        baseline = {
            s: run_attack_scenario(SCHEMES[s], BudgetLevel.NORMAL, attack=False)
            for s in SCHEMES
        }
        return matrix, baseline

    matrix, baseline = benchmark.pedantic(build, rounds=1, iterations=1)

    def normalized(sim):
        rep = report_for(sim)
        return rep.committed_utility_energy_j / (
            sim.budget.supply_w * rep.duration_s
        )

    norm = {
        (s, b): normalized(matrix[s][b]) for s in SCHEMES for b in BUDGETS
    }
    base_norm = {s: normalized(baseline[s]) for s in SCHEMES}
    print_table(
        ["scheme", "no attack"] + [b.value for b in BUDGETS],
        [(s, base_norm[s], *(norm[(s, b)] for b in BUDGETS)) for s in SCHEMES],
        title="Fig 19: committed utility energy / supplied energy",
    )

    # Baseline case: all schemes consume (essentially) the same energy.
    base = list(base_norm.values())
    assert max(base) - min(base) < 0.05 * min(base)
    for b in (BudgetLevel.MEDIUM, BudgetLevel.LOW):
        # Capping saves energy relative to Shaving: blind V/F reduction
        # slows everything down and the battery debt never accrues.
        assert norm[("capping", b)] < norm[("shaving", b)]
        # Anti-DOPE uses less energy than Shaving (the paper's explicit
        # claim: "less dependency on batteries").  In our model it also
        # undercuts Capping because the regulated suspect queue sheds
        # flood work outright — see EXPERIMENTS.md.
        assert norm[("anti-dope", b)] < norm[("shaving", b)]
        # Shaving is the most expensive arm once the deferred recharge
        # is priced in.
        assert norm[("shaving", b)] == max(norm[(s, b)] for s in SCHEMES)
