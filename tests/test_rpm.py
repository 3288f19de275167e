"""Unit tests for the RPM control slot (Anti-DOPE step 2).

RPM is :meth:`SuspectPoolScheme.step`.  Each test binds an
``AntiDopeScheme`` on the four-server ``rack`` fixture, whose PDF carve
is ``split_pools(rack.servers, 1)``: servers 0–2 innocent, server 3
suspect.
"""

import pytest

from repro.core import AntiDopeScheme
from repro.network import Request
from repro.power import Battery, PowerBudget
from repro.power.manager import servers_power_at_level
from repro.workloads import COLLA_FILT, TEXT_CONT, TrafficClass


def load_pool(pool, rtype=COLLA_FILT, per_server=8):
    for s in pool:
        for i in range(per_server):
            s.submit(Request(rtype, i, TrafficClass.ATTACK, 0.0))


def make_scheme(engine, rack, supply_w, battery=None):
    """(scheme, innocent pool, suspect pool) bound on *rack*."""
    scheme = AntiDopeScheme()
    scheme.bind(engine, rack, PowerBudget(supply_w), battery, 1.0)
    policy = scheme.policy
    return scheme, policy.innocent_pool.members, policy.suspect_pool.members


def spy_on_planner(scheme):
    """Record each ``plan`` call's (predict, suspect level, innocent level)."""
    calls = []
    plan = scheme.planner.plan

    def spy(cap_w, predict, current_suspect_level, current_innocent_level):
        calls.append((predict, current_suspect_level, current_innocent_level))
        return plan(cap_w, predict, current_suspect_level, current_innocent_level)

    scheme.planner.plan = spy
    return calls


class TestControl:
    def test_no_violation_no_throttle(self, engine, rack):
        scheme, _, _ = make_scheme(engine, rack, supply_w=400.0)
        assert scheme.budget.deficit(scheme.current_power()) == 0.0
        scheme.step()
        assert rack.levels() == [12] * 4

    def test_suspect_pool_throttled_first(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=220.0)
        load_pool(suspect)
        load_pool(innocent, TEXT_CONT, per_server=2)
        # Load: suspect server at 100 W + 3 innocent at ~43 W = ~230 W.
        scheme.step()
        assert suspect[0].level < 12
        assert all(s.level == 12 for s in innocent)
        assert scheme.current_power() <= 220.0 + 1e-6

    def test_innocent_untouched_even_at_deep_suspect_throttle(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=200.0)
        load_pool(suspect)
        scheme.step()
        assert all(s.level == 12 for s in innocent)

    def test_violation_statistics(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=200.0)
        load_pool(suspect)
        scheme.slot_tick()
        scheme.slot_tick()
        counters = engine.obs.counters
        assert counters.get("power.control_slots") == 2
        assert counters.get("power.budget_violation_slots") >= 1
        assert suspect[0].level < 12

    def test_recovery_after_load_drains(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=205.0)
        load_pool(suspect)
        # Load: suspect at 100 W + 3 idle innocent at 38 W = 214 W.
        scheme.step()
        assert suspect[0].level < 12
        engine.run(until=60.0)
        scheme.step()
        assert suspect[0].level == 12

    def test_crashed_suspect_server_predicts_zero_and_keeps_its_level(
        self, engine, rack
    ):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=150.0)
        load_pool(innocent)
        suspect[0].set_level(7)
        suspect[0].fail()
        calls = spy_on_planner(scheme)
        scheme.step()
        (predict, suspect_level, innocent_level), = calls
        # A pool with no healthy member is planned from the ladder top.
        assert (suspect_level, innocent_level) == (12, 12)
        for q in range(13):
            expected = servers_power_at_level(innocent, q)
            assert [predict(p, q) for p in range(13)] == [expected] * 13
        # The innocent pool had to throttle; the crashed server did not move.
        assert all(s.level < 12 for s in innocent)
        assert suspect[0].level == 7


class TestBatteryTransition:
    def test_battery_covers_reconfiguration_slot(self, engine, rack):
        battery = Battery.for_rack(400.0)
        scheme, innocent, suspect = make_scheme(
            engine, rack, supply_w=205.0, battery=battery
        )
        load_pool(suspect)
        scheme.step()
        assert suspect[0].level < 12
        assert battery.delivered_j > 0

    def test_no_discharge_without_reconfiguration(self, engine, rack):
        battery = Battery.for_rack(400.0)
        scheme, _, _ = make_scheme(engine, rack, supply_w=400.0, battery=battery)
        scheme.step()
        scheme.step()
        assert battery.delivered_j == 0.0

    def test_recharges_when_compliant(self, engine, rack):
        battery = Battery.for_rack(400.0)
        battery.soc_j = battery.capacity_j / 2
        scheme, _, _ = make_scheme(engine, rack, supply_w=400.0, battery=battery)
        scheme.step()
        assert battery.soc_j > battery.capacity_j / 2

    def test_steady_violation_after_reconfig_does_not_drain(self, engine, rack):
        """Once the throttle plan is in place, a persistent residual
        violation must not bleed the battery (it is a transition medium,
        not a shaving store)."""
        battery = Battery.for_rack(400.0)
        # Budget below idle floor: infeasible, always violating.
        scheme, innocent, suspect = make_scheme(
            engine, rack, supply_w=140.0, battery=battery
        )
        load_pool(suspect)
        load_pool(innocent, COLLA_FILT, per_server=8)
        scheme.step()
        after_first = battery.delivered_j
        for _ in range(1, 10):
            scheme.step()
        assert battery.delivered_j == after_first


class TestPrediction:
    def test_predict_matches_actual_after_apply(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=330.0)
        load_pool(suspect)
        calls = spy_on_planner(scheme)
        scheme.step()
        predict = calls[0][0]
        predicted = predict(5, 12)
        for s in suspect:
            s.set_level(5)
        assert scheme.current_power() == pytest.approx(predicted)

    def test_predict_monotone_in_levels(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=330.0)
        load_pool(suspect)
        load_pool(innocent, COLLA_FILT, per_server=4)
        calls = spy_on_planner(scheme)
        scheme.step()
        predict = calls[0][0]
        for p in range(0, 12):
            assert predict(p, 12) <= predict(p + 1, 12) + 1e-9
            assert predict(12, p) <= predict(12, p + 1) + 1e-9


class TestValidation:
    def test_infeasible_applies_the_deepest_throttle(self, engine, rack):
        scheme, innocent, suspect = make_scheme(engine, rack, supply_w=100.0)
        load_pool(suspect)
        load_pool(innocent)
        scheme.step()
        assert rack.levels() == [0] * 4
