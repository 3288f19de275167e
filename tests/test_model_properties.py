"""Property-based tests for the physical model invariants.

Three families of invariants the paper's numbers silently depend on:

* **Power monotonicity** — server power never decreases when
  utilization (busy workers) or frequency rises; DVFS capping relies on
  this slope having one sign.
* **Battery bounds** — no operation sequence can drive the stored
  energy below zero or above capacity, and the cumulative flow
  counters reconcile exactly with the state of charge.
* **Energy conservation** — over any simulated scenario,
  ``battery_out + grid == load``: every joule the rack consumed came
  from either the utility or the battery, and the battery's SoC delta
  accounts for what it delivered and absorbed.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    DataCenterSimulation,
    ShavingScheme,
    SimulationConfig,
)
from repro.cluster import ServerPowerModel
from repro.metrics import EnergyAccountant
from repro.power import Battery
from repro.workloads import ALL_TYPES, COLLA_FILT, K_MEANS, uniform_mix

# ----------------------------------------------------------------------
# Server power: monotone in utilization and in frequency
# ----------------------------------------------------------------------

ratios = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
worker_sets = st.lists(
    st.sampled_from(ALL_TYPES), min_size=0, max_size=8
)


def counted_power(model, active, r):
    """Server power with busy workers *active* at ratio *r*, in the
    per-type count form (``power_from_counts``) every server evaluates."""
    slots = list(dict.fromkeys(active))
    return model.power_from_counts(
        [active.count(rtype) for rtype in slots],
        [rtype.dynamic_power_factor(r, alpha=model.alpha) for rtype in slots],
        model.idle_power(r),
    )


class TestPowerMonotonicity:
    @given(active=worker_sets, extra=st.sampled_from(ALL_TYPES), r=ratios)
    def test_power_monotone_in_utilization(self, active, extra, r):
        """Adding one busy worker never lowers server power."""
        model = ServerPowerModel()
        assert counted_power(model, active + [extra], r) >= counted_power(
            model, active, r
        ) - 1e-12

    @given(active=worker_sets, r1=ratios, r2=ratios)
    def test_power_monotone_in_frequency(self, active, r1, r2):
        """Raising the V/F point never lowers power for a fixed load."""
        model = ServerPowerModel()
        lo, hi = min(r1, r2), max(r1, r2)
        assert counted_power(model, active, lo) <= counted_power(
            model, active, hi
        ) + 1e-12

    @given(r=ratios, n=st.integers(min_value=0, max_value=8))
    def test_utilization_slope_matches_worker_power(self, r, n):
        """Total power decomposes into idle floor + per-worker terms."""
        model = ServerPowerModel()
        expected = model.idle_power(r) + n * model.worker_power(COLLA_FILT, r)
        assert math.isclose(
            counted_power(model, [COLLA_FILT] * n, r), expected, rel_tol=1e-12
        )


# ----------------------------------------------------------------------
# Battery: state of charge stays within [0, capacity]
# ----------------------------------------------------------------------

battery_ops = st.lists(
    st.tuples(
        st.sampled_from(["charge", "discharge", "idle"]),
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=120.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestBatteryBounds:
    @given(
        ops=battery_ops,
        capacity_j=st.floats(min_value=100.0, max_value=50_000.0),
        soc=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_soc_never_leaves_physical_bounds(self, ops, capacity_j, soc):
        battery = Battery(
            capacity_j=capacity_j,
            max_discharge_w=400.0,
            max_charge_w=100.0,
            initial_soc=soc,
        )
        for op, power_w, dt in ops:
            if op == "charge":
                battery.charge(power_w, dt)
            elif op == "discharge":
                battery.discharge(power_w, dt)
            else:
                battery.idle()
            assert 0.0 <= battery.soc_j <= battery.capacity_j
            assert 0.0 <= battery.soc_fraction <= 1.0

    @given(ops=battery_ops)
    def test_flow_counters_reconcile_with_soc(self, ops):
        """delivered − η·absorbed always equals the SoC drawdown."""
        battery = Battery(
            capacity_j=10_000.0,
            max_discharge_w=400.0,
            max_charge_w=100.0,
            efficiency=0.9,
            initial_soc=0.5,
        )
        soc_start_j = battery.soc_j
        for op, power_w, dt in ops:
            if op == "charge":
                battery.charge(power_w, dt)
            elif op == "discharge":
                battery.discharge(power_w, dt)
            else:
                battery.idle()
        stored_j = battery.absorbed_grid_j * battery.efficiency
        assert math.isclose(
            soc_start_j - battery.soc_j,
            battery.delivered_j - stored_j,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

    @given(
        power_w=st.floats(min_value=0.0, max_value=10_000.0),
        dt=st.floats(min_value=0.01, max_value=600.0),
    )
    def test_single_discharge_respects_rate_and_energy_limits(self, power_w, dt):
        battery = Battery(
            capacity_j=5_000.0, max_discharge_w=300.0, max_charge_w=100.0
        )
        delivered_w = battery.discharge(power_w, dt)
        assert 0.0 <= delivered_w <= min(power_w, 300.0) + 1e-12
        assert battery.soc_j >= 0.0


# ----------------------------------------------------------------------
# Energy accounting: battery_out + grid == load, across whole scenarios
# ----------------------------------------------------------------------

scenario = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**16),
        "attack_rate": st.floats(min_value=50.0, max_value=400.0),
        "scheme": st.sampled_from([ShavingScheme, AntiDopeScheme]),
        "budget": st.sampled_from([BudgetLevel.LOW, BudgetLevel.MEDIUM]),
    }
)


class TestEnergyConservation:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(params=scenario)
    def test_battery_out_plus_grid_equals_load(self, params):
        """Conservation over a randomized seeded attack scenario."""
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=params["budget"], seed=params["seed"]),
            scheme=params["scheme"](),
        )
        sim.add_normal_traffic(rate_rps=30)
        sim.add_flood(
            mix=uniform_mix((COLLA_FILT, K_MEANS)),
            rate_rps=params["attack_rate"],
            num_agents=10,
            start_s=5.0,
        )
        battery = sim.battery
        soc_start_j = battery.soc_j
        accountant = EnergyAccountant(sim.rack, sim.battery)
        sim.run(40.0)
        report = accountant.report()

        # Independent measurements: the rack integral and the battery's
        # own flow counters must be what the report was built from.
        assert report.load_energy_j >= 0.0
        assert report.battery_delivered_j >= 0.0
        assert report.battery_recharge_grid_j >= 0.0

        # battery_out + grid == load: the grid-to-load share is utility
        # minus what went into recharging, and the rest came from the UPS.
        grid_to_load_j = report.utility_energy_j - report.battery_recharge_grid_j
        assert math.isclose(
            report.battery_delivered_j + grid_to_load_j,
            report.load_energy_j,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

        # The battery's SoC delta accounts exactly for its flows.
        stored_j = report.battery_recharge_grid_j * battery.efficiency
        assert math.isclose(
            soc_start_j - battery.soc_j,
            report.battery_delivered_j - stored_j,
            rel_tol=1e-9,
            abs_tol=1e-6,
        )

        # And the battery never left its physical bounds by the end.
        assert 0.0 <= battery.soc_j <= battery.capacity_j
