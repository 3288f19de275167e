"""Unit tests for the Shaving scheme (UPS peak shaving, Table 2 row 2)."""

import pytest

from repro.network import Request
from repro.power import Battery, PowerBudget, ShavingScheme
from repro.workloads import COLLA_FILT, TrafficClass


def load_rack(rack, per_server=8):
    for s in rack.servers:
        for i in range(per_server):
            s.submit(Request(COLLA_FILT, i, TrafficClass.ATTACK, 0.0))


def bind(engine, rack, supply_w, battery=None, **kwargs):
    scheme = ShavingScheme(**kwargs)
    battery = battery or Battery.for_rack(rack.nameplate_w, sustain_s=120.0)
    scheme.bind(engine, rack, PowerBudget(supply_w), battery, 1.0)
    return scheme, battery


class TestBatteryFirst:
    def test_battery_absorbs_peak_without_dvfs(self, engine, rack):
        scheme, battery = bind(engine, rack, supply_w=320.0)
        load_rack(rack)  # 400 W demand vs 320 W budget
        scheme.step()
        assert rack.levels() == [12] * 4  # no throttling
        assert battery.delivered_j > 0

    def test_full_carry_discharges_entire_load(self, engine, rack):
        scheme, battery = bind(engine, rack, supply_w=320.0)
        load_rack(rack)
        scheme.step()
        # One slot at ~400 W means the whole rack power left the battery.
        assert battery.delivered_j == pytest.approx(400.0, rel=0.01)

    def test_paper_battery_exhausts_in_two_minutes_full_carry(self, engine, rack):
        # "a mini battery which can sustain 2 minutes when supporting
        # all the web application nodes".
        scheme, battery = bind(engine, rack, supply_w=320.0, soc_reserve=0.0)
        load_rack(rack)
        slots = 0
        while battery.soc_fraction > 0.01 and slots < 1000:
            scheme.step()
            slots += 1
        assert slots == pytest.approx(120, rel=0.1)


class TestDVFSFallback:
    def test_dvfs_engages_when_battery_exhausted(self, engine, rack):
        battery = Battery.for_rack(rack.nameplate_w, sustain_s=1.0)
        scheme, battery = bind(engine, rack, supply_w=320.0, battery=battery)
        load_rack(rack)
        # The tiny battery tops up the 80 W deficit for a few slots;
        # grid-side draw stays within budget throughout, and once the
        # battery is dry DVFS must take over.
        for _ in range(10):
            before = battery.delivered_j
            scheme.step()
            battery_w = battery.delivered_j - before
            assert rack.total_power() - battery_w <= 320.0 + 1e-6
        assert battery.soc_fraction <= scheme.soc_reserve + 0.05
        assert rack.levels()[0] < 12
        assert rack.total_power() <= 320.0 + 1e-6

    def test_recovery_restores_nominal(self, engine, rack, collector):
        battery = Battery.for_rack(rack.nameplate_w, sustain_s=1.0)
        scheme, battery = bind(engine, rack, supply_w=320.0, battery=battery)
        load_rack(rack)
        scheme.step()
        scheme.step()
        engine.run(until=120.0)  # load drains
        scheme.step()
        assert rack.levels() == [12] * 4


class TestRecharge:
    def test_recharges_from_headroom(self, engine, rack):
        battery = Battery.for_rack(rack.nameplate_w, sustain_s=120.0)
        battery.soc_j = 0.0
        scheme, battery = bind(engine, rack, supply_w=400.0, battery=battery)
        scheme.step()  # idle rack: plenty of headroom
        assert battery.soc_j > 0

    def test_no_recharge_during_violation(self, engine, rack):
        scheme, battery = bind(engine, rack, supply_w=320.0)
        load_rack(rack)
        soc_before = battery.soc_j
        scheme.step()
        assert battery.soc_j < soc_before

    def test_recharge_never_pushes_grid_draw_over_budget(self, engine, rack):
        # Regression: the charge offer must come from the headroom that
        # remains *after* the DVFS raise.  Worst case is the greediest
        # recharge (fraction=1.0) on a drained battery while the rack
        # sits throttled well below budget: the raise reclaims most of
        # the apparent headroom, so charging against the pre-raise
        # figure would overdraw the feed by ~max_charge_w.
        battery = Battery.for_rack(
            rack.nameplate_w, sustain_s=120.0, efficiency=0.9
        )
        battery.soc_j = 0.0
        scheme, battery = bind(
            engine,
            rack,
            supply_w=320.0,
            battery=battery,
            recharge_headroom_fraction=1.0,
        )
        load_rack(rack)
        rack.set_all_levels(0)  # throttled leftover from an earlier slot
        before_j = battery.absorbed_grid_j
        scheme.step()
        charge_w = (battery.absorbed_grid_j - before_j) / scheme.slot_s
        grid_w = rack.total_power() + charge_w
        assert grid_w <= 320.0 + 1e-6


class TestValidation:
    def test_requires_battery(self, engine, rack):
        scheme = ShavingScheme()
        with pytest.raises(ValueError, match="battery"):
            scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            ShavingScheme(recharge_headroom_fraction=1.5)
        with pytest.raises(ValueError):
            ShavingScheme(soc_reserve=1.0)
