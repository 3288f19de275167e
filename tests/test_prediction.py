"""Prediction-based oversubscription: the sixth scheme and its poisoning.

Three layers:

* the streaming :class:`PowerHistoryPredictor` (quantile convergence,
  decaying floor, clamped step — the O(1)-memory estimator itself);
* :class:`PredictionScheme` end-to-end (tier ladder, effective-budget
  inflation, registry/config plumbing);
* the headline: under the ``predictor-poison`` attack the scheme admits
  a flood that drives measured rack power over the true supply while
  the predicted-draw budget still reports below it — the
  ``predict.blind_violation_slots`` window.
"""

import pytest

from repro import (
    BudgetLevel,
    DataCenterSimulation,
    PredictionScheme,
    SimulationConfig,
)
from repro.detect import SCHEME_NAMES, make_scheme
from repro.power.prediction import (
    TIER_HARD,
    TIER_HEALTHY,
    PowerHistoryPredictor,
    PredictedHeadroomFilter,
)
from repro.workloads import COLLA_FILT, K_MEANS, uniform_mix

ATTACK = uniform_mix((COLLA_FILT, K_MEANS))


# ----------------------------------------------------------------------
# The streaming predictor
# ----------------------------------------------------------------------


class TestPowerHistoryPredictor:
    def test_first_observation_snaps(self):
        predictor = PowerHistoryPredictor(initial_w=400.0)
        predictor.observe(250.0, dt_s=1.0)
        assert predictor.quantile_estimate_w == pytest.approx(250.0)
        assert predictor.floor_w == pytest.approx(250.0)
        assert predictor.observations == 1

    def test_quantile_climbs_toward_high_samples(self):
        predictor = PowerHistoryPredictor(
            quantile=0.99, step_w=4.0, max_step_up_w_per_s=1000.0
        )
        for _ in range(200):
            predictor.observe(300.0, dt_s=1.0)
        # Constant samples above the estimate push it up by step*q per
        # observation until it reaches the sample value.
        assert predictor.quantile_estimate_w == pytest.approx(300.0, abs=5.0)
        assert predictor.prediction_w == pytest.approx(300.0, abs=5.0)

    def test_floor_decays_after_a_peak(self):
        predictor = PowerHistoryPredictor(floor_decay_w_per_s=10.0)
        predictor.observe(400.0, dt_s=1.0)  # snap: floor = 400
        for _ in range(20):
            predictor.observe(100.0, dt_s=1.0)
        # 20 s at 10 W/s erodes the peak by 200 W; low samples cannot
        # prop it up.
        assert predictor.floor_w == pytest.approx(200.0)

    def test_floor_never_drops_below_current_sample(self):
        predictor = PowerHistoryPredictor(floor_decay_w_per_s=1000.0)
        predictor.observe(400.0, dt_s=1.0)
        predictor.observe(150.0, dt_s=1.0)
        assert predictor.floor_w == pytest.approx(150.0)

    def test_prediction_step_clamped_upward(self):
        predictor = PowerHistoryPredictor(
            initial_w=100.0, max_step_up_w_per_s=5.0
        )
        predictor.observe(100.0, dt_s=1.0)
        # A flood appears: target jumps far above, prediction moves 5 W.
        predictor.observe(1000.0, dt_s=1.0)
        assert predictor.prediction_w == pytest.approx(105.0)

    def test_prediction_step_clamped_downward(self):
        predictor = PowerHistoryPredictor(
            initial_w=500.0,
            max_step_down_w_per_s=2.0,
            floor_decay_w_per_s=1000.0,
            step_w=1000.0,
        )
        predictor.observe(500.0, dt_s=1.0)
        predictor.observe(0.0, dt_s=1.0)
        assert predictor.prediction_w == pytest.approx(498.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerHistoryPredictor(quantile=1.0)
        with pytest.raises(ValueError):
            PowerHistoryPredictor(step_w=0.0)
        with pytest.raises(ValueError):
            PowerHistoryPredictor(initial_w=-1.0)
        predictor = PowerHistoryPredictor()
        with pytest.raises(ValueError):
            predictor.observe(-5.0, dt_s=1.0)
        with pytest.raises(ValueError):
            predictor.observe(100.0, dt_s=0.0)


class TestPredictedHeadroomFilter:
    def test_retarget_settles_accrual_at_old_rate(self):
        bucket = PredictedHeadroomFilter(
            refill_rate_w=10.0, burst_s=100.0, energy_cost_fn=lambda r: 1.0
        )
        bucket.tokens_j = 0.0
        bucket._last_refill = 0.0
        bucket.set_refill_rate_w(100.0, now=5.0)
        # The 5 s before the switch accrue at the *old* 10 W rate.
        assert bucket.tokens_j == pytest.approx(50.0)
        bucket._refill(6.0)
        # The next second accrues at the new 100 W rate.
        assert bucket.tokens_j == pytest.approx(150.0)

    def test_retarget_floors_at_positive_rate(self):
        bucket = PredictedHeadroomFilter(
            refill_rate_w=10.0, burst_s=1.0, energy_cost_fn=lambda r: 1.0
        )
        bucket.set_refill_rate_w(-50.0, now=0.0)
        assert bucket.refill_rate_w > 0.0


# ----------------------------------------------------------------------
# The scheme
# ----------------------------------------------------------------------


class TestPredictionScheme:
    def test_registered_as_sixth_scheme(self):
        assert "prediction" in SCHEME_NAMES
        scheme = make_scheme("prediction")
        assert isinstance(scheme, PredictionScheme)

    def test_make_scheme_threads_horizon(self):
        config = SimulationConfig(prediction_horizon_s=120.0)
        scheme = make_scheme("prediction", config)
        assert scheme.horizon_s == pytest.approx(120.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionScheme(quantile=1.5)
        with pytest.raises(ValueError):
            PredictionScheme(horizon_s=0.0)
        with pytest.raises(ValueError):
            PredictionScheme(hard_fraction=0.9)
        with pytest.raises(ValueError):
            PredictionScheme(oversubscription_gain=-1.0)
        with pytest.raises(ValueError):
            PredictionScheme(hysteresis=0.5)

    def test_benign_run_reaches_healthy_tier_without_drops(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
            scheme=PredictionScheme(),
        )
        sim.add_normal_traffic(rate_rps=40.0)
        sim.run(60.0)
        report = sim.scheme.report()
        assert report["tier"] == TIER_HEALTHY
        assert report["dropped"] == 0
        # History well below supply earned oversubscription: the
        # effective budget exceeds the provisioned supply.
        assert report["effective_budget_w"] > report["supply_w"]
        assert report["prediction_w"] < report["supply_w"]

    def test_warmup_starts_pessimistic_at_nameplate(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
            scheme=PredictionScheme(),
        )
        sim.ensure_started()
        scheme = sim.scheme
        assert scheme.predictor.prediction_w == pytest.approx(
            sim.rack.nameplate_w
        )
        assert scheme.last_tier == TIER_HARD
        # Nameplate prediction earns zero oversubscription.
        assert scheme.effective_budget_w() == pytest.approx(
            sim.budget.supply_w
        )

    def test_report_is_json_ready(self):
        import json

        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=2),
            scheme=PredictionScheme(),
        )
        sim.add_normal_traffic(rate_rps=20.0)
        sim.run(10.0)
        payload = json.dumps(sim.scheme.report(), allow_nan=False)
        assert "prediction" in payload

    def test_tier_counters_recorded(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=3),
            scheme=PredictionScheme(),
        )
        sim.add_normal_traffic(rate_rps=40.0)
        sim.run(30.0)
        counters = sim.obs.counters.as_dict()
        tier_slots = sum(
            counters.get(name, 0)
            for name in (
                "predict.healthy_slots",
                "predict.warn_slots",
                "predict.soft_cap_slots",
                "predict.hard_cap_slots",
            )
        )
        # Every control slot lands in exactly one tier.
        assert tier_slots == counters["power.control_slots"]


# ----------------------------------------------------------------------
# The poisoning headline
# ----------------------------------------------------------------------


class TestPredictorPoisoning:
    def test_poisoned_flood_violates_supply_while_forecast_reads_healthy(self):
        """The PR's headline scenario, committed as a regression test.

        Shape light traffic for two horizons (the percentile and the
        decayed floor both walk down, inflating the effective budget),
        then flood: the admission path — sized against the poisoned
        forecast — lets the surge through, measured rack power crosses
        the true supply, and the clamped prediction step keeps the
        forecast below supply for multiple slots.  Those are the
        blind-violation slots; a meter-driven scheme has none.
        """
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=7),
            scheme=PredictionScheme(),
        )
        sim.add_normal_traffic(rate_rps=20.0)
        sim.add_dope_attacker(
            start_delay_s=5.0,
            mode="predictor-poison",
            poison_duration_s=120.0,
            max_rate_rps=600.0,
            num_agents=60,
        )
        sim.run(240.0)
        supply_w = sim.budget.supply_w
        assert sim.meter.peak_power() > supply_w
        counters = sim.obs.counters.as_dict()
        assert counters["predict.blind_violation_slots"] > 0
        # The hard-cap fallback does eventually engage once the
        # forecast catches up — the attack buys a window, not immunity.
        assert counters["predict.hard_cap_slots"] > 0

    def test_shaping_depresses_the_forecast(self):
        """During the quiet phase the prediction converges toward idle,
        granting more effective budget than the supply — the inflated
        headroom the flood lands in."""
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=7),
            scheme=PredictionScheme(),
        )
        sim.add_normal_traffic(rate_rps=20.0)
        sim.add_dope_attacker(
            start_delay_s=5.0,
            mode="predictor-poison",
            poison_duration_s=300.0,  # still shaping at the end of the run
            max_rate_rps=600.0,
        )
        sim.run(200.0)
        report = sim.scheme.report()
        assert report["prediction_w"] < sim.budget.supply_w
        assert report["effective_budget_w"] > sim.budget.supply_w
        assert report["tier"] == TIER_HEALTHY
