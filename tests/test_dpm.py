"""Unit tests for the DPM planner (Algorithm 1)."""

import pytest

from repro.core import DPMPlanner


def linear_predictor(suspect_w_per_level, innocent_w_per_level, base=0.0):
    """A simple monotone predictor: watts grow linearly with level."""

    def predict(p, q):
        return base + suspect_w_per_level * p + innocent_w_per_level * q

    return predict


class TestPhase1SuspectOnly:
    def test_no_throttle_when_budget_loose(self):
        planner = DPMPlanner(max_level=12)
        predict = linear_predictor(10.0, 20.0, base=40.0)
        plan = planner.plan(500.0, predict, 12, 12)
        assert plan.suspect_level == 12
        assert plan.innocent_level == 12
        assert plan.feasible

    def test_throttles_suspect_pool_first(self):
        planner = DPMPlanner(max_level=12)
        # At (12, 12): 40 + 120 + 240 = 400.  Cap 360 needs suspect <= 8.
        predict = linear_predictor(10.0, 20.0, base=40.0)
        plan = planner.plan(360.0, predict, 12, 12)
        assert plan.innocent_level == 12  # innocent untouched
        assert plan.suspect_level == 8
        assert predict(plan.suspect_level, plan.innocent_level) <= 360.0

    def test_picks_highest_fitting_suspect_level(self):
        planner = DPMPlanner(max_level=12, hysteresis=0.0)
        predict = linear_predictor(10.0, 20.0, base=40.0)
        plan = planner.plan(360.0, predict, 12, 12)
        assert predict(plan.suspect_level + 1, 12) > 360.0


class TestPhase2InnocentFallback:
    def test_innocent_throttled_only_when_suspect_insufficient(self):
        planner = DPMPlanner(max_level=12)
        # Even suspect at 0: 40 + 0 + 240 = 280 > cap 240 → innocent must drop.
        predict = linear_predictor(10.0, 20.0, base=40.0)
        plan = planner.plan(240.0, predict, 12, 12)
        assert plan.suspect_level == 0
        assert plan.innocent_level < 12
        assert predict(plan.suspect_level, plan.innocent_level) <= 240.0
        assert plan.feasible

    def test_phase1_plans_do_not_degrade_innocent(self):
        planner = DPMPlanner(max_level=12)
        predict = linear_predictor(10.0, 20.0, base=40.0)
        plan = planner.plan(360.0, predict, 12, 12)
        assert plan.innocent_level == 12


class TestPhase3Infeasible:
    def test_idle_floor_dominated_goes_to_bottom(self):
        planner = DPMPlanner(max_level=12)
        predict = linear_predictor(10.0, 20.0, base=40.0)
        plan = planner.plan(30.0, predict, 12, 12)  # below the 40 W base
        assert plan.suspect_level == 0
        assert plan.innocent_level == 0
        assert not plan.feasible


class TestHysteresis:
    def test_raising_needs_guard_margin(self):
        planner = DPMPlanner(max_level=12, hysteresis=0.10)
        predict = linear_predictor(10.0, 0.0, base=0.0)
        # Current suspect level 5 (50 W).  Cap 100: level 10 fits the cap
        # exactly but not the 90 W guard; level 9 fits both.
        plan = planner.plan(100.0, predict, 5, 12)
        assert plan.suspect_level == 9

    def test_holding_does_not_need_guard(self):
        planner = DPMPlanner(max_level=12, hysteresis=0.10)
        predict = linear_predictor(10.0, 0.0, base=0.0)
        # Already at level 10 drawing exactly the cap: stay, don't drop.
        plan = planner.plan(100.0, predict, 10, 12)
        assert plan.suspect_level == 10

    def test_zero_hysteresis_raises_to_cap(self):
        planner = DPMPlanner(max_level=12, hysteresis=0.0)
        predict = linear_predictor(10.0, 0.0, base=0.0)
        plan = planner.plan(100.0, predict, 5, 12)
        assert plan.suspect_level == 10


class TestValidation:
    def test_levels_validated(self):
        planner = DPMPlanner(max_level=12)
        with pytest.raises(ValueError):
            planner.plan(100.0, lambda p, q: 0.0, 13, 12)
        with pytest.raises(ValueError):
            planner.plan(100.0, lambda p, q: 0.0, 12, -1)

    def test_negative_cap_rejected(self):
        planner = DPMPlanner(max_level=12)
        with pytest.raises(ValueError):
            planner.plan(-1.0, lambda p, q: 0.0, 12, 12)

    def test_invalid_hysteresis_rejected(self):
        for hysteresis in (0.5, 0.7, 1.5):
            with pytest.raises(ValueError):
                DPMPlanner(max_level=12, hysteresis=hysteresis)
