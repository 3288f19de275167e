"""Prediction: history-driven oversubscription (the sixth scheme).

The Kumbhare et al. approach ("Prediction-Based Power Oversubscription
in Cloud Platforms", ATC'21; ROADMAP item 4): instead of admitting and
throttling against the nameplate or the instantaneous meter, the
controller keeps a streaming percentile estimate of the rack's recent
power history and treats *predicted* draw as the planning signal.  When
the history says the rack has never come close to the provisioned
supply, the controller oversubscribes harder — it inflates the
*effective* budget the admission path is sized against — and it backs
off through graded tiers (warn → soft cap → hard cap) as the predicted
draw approaches the real supply.

The scheme is deliberately faithful to the production design's
safeguards, because those safeguards are exactly what the
``predictor-poison`` attack mode of :class:`~repro.workloads.dope
.DopeAttacker` probes:

* the prediction is **floored at the observed maximum**, but the floor
  *decays* over ``horizon_s`` (old peaks stop haunting the forecast);
* the prediction moves with a **clamped step size** (meter noise must
  not whipsaw the budget), so a synchronized flood outruns the
  forecast for many control slots.

An attacker who shapes sustained low-draw traffic for longer than the
horizon therefore walks the percentile *and* the decayed floor down,
inflates the effective budget, and then floods into headroom that was
never real — the rack violates the true supply while the predicted-draw
budget still reports healthy.  The ``predict.blind_violation_slots``
counter makes that window measurable.
"""

from __future__ import annotations

from typing import Optional

from .._validation import check_fraction, check_positive, require
from ..network.request import Request
from .manager import PowerManagementScheme
from .token_bucket import PowerTokenBucket

__all__ = [
    "PowerHistoryPredictor",
    "PredictedHeadroomFilter",
    "PredictionScheme",
    "TIER_HEALTHY",
    "TIER_WARN",
    "TIER_SOFT",
    "TIER_HARD",
]

#: Graded throttle-tier names (reported per slot and in :meth:`report`).
TIER_HEALTHY = "healthy"
TIER_WARN = "warn"
TIER_SOFT = "soft-cap"
TIER_HARD = "hard-cap"

#: History percentile the forecast tracks (P99).
QUANTILE = 0.99
#: Tier thresholds on predicted/supply: below ``WARN_FRACTION`` the
#: rack is healthy, from ``HARD_FRACTION`` on it is hard-capped.
WARN_FRACTION = 0.92
HARD_FRACTION = 1.05
#: Clamp on the per-second prediction step, as a fraction of rack
#: nameplate (up: chasing a flood; down: decaying after one).
RAMP_UP_FRACTION = 0.05
RAMP_DOWN_FRACTION = 0.02
#: Watts of extra effective budget granted per watt of predicted
#: headroom.
OVERSUBSCRIPTION_GAIN = 1.0
#: Admission-bucket depth in seconds of refill.
BURST_S = 2.0


class PowerHistoryPredictor:
    """Streaming per-rack power forecast in O(1) memory.

    Three coupled estimators, each one float of state:

    * an **exponentially-weighted quantile** of the observed power
      (Robbins-Monro pinball steps: an observation above the estimate
      moves it up by ``step_w·q``, one below moves it down by
      ``step_w·(1-q)`` — the stationary point is the q-quantile);
    * a **decaying observed-max floor**: the forecast never drops below
      the largest recent observation, but the floor fades at
      ``floor_decay_w_per_s`` so a peak older than roughly the history
      horizon stops propping the forecast up;
    * the **published prediction**, which chases
      ``max(quantile, floor)`` under a clamped step
      (``max_step_up_w_per_s`` / ``max_step_down_w_per_s``) so meter
      noise cannot whipsaw the downstream budget.

    Purely arithmetic — no RNG, no wall clock — so same-seed runs stay
    byte-identical in every engine mode.
    """

    def __init__(
        self,
        quantile: float = 0.99,
        initial_w: float = 0.0,
        step_w: float = 4.0,
        floor_decay_w_per_s: float = 5.0,
        max_step_up_w_per_s: float = 20.0,
        max_step_down_w_per_s: float = 8.0,
    ) -> None:
        check_fraction("quantile", quantile, inclusive=False)
        check_positive("step_w", step_w)
        check_positive("floor_decay_w_per_s", floor_decay_w_per_s)
        check_positive("max_step_up_w_per_s", max_step_up_w_per_s)
        check_positive("max_step_down_w_per_s", max_step_down_w_per_s)
        require(initial_w >= 0.0, f"initial_w must be >= 0, got {initial_w}")
        self.quantile = float(quantile)
        self.step_w = float(step_w)
        self.floor_decay_w_per_s = float(floor_decay_w_per_s)
        self.max_step_up_w_per_s = float(max_step_up_w_per_s)
        self.max_step_down_w_per_s = float(max_step_down_w_per_s)
        self.quantile_estimate_w = float(initial_w)
        self.floor_w = float(initial_w)
        self.prediction_w = float(initial_w)
        self.observations = 0

    def observe(self, power_w: float, dt_s: float) -> float:
        """Fold one power sample in; return the updated prediction."""
        check_positive("dt_s", dt_s)
        require(power_w >= 0.0, f"power_w must be >= 0, got {power_w}")
        if self.observations == 0:
            # Snap to the first sample: a cold estimator chasing an
            # arbitrary init through clamped steps would spend the whole
            # warm-up window reporting a fiction.
            self.quantile_estimate_w = power_w
            self.floor_w = power_w
        else:
            self.floor_w = max(
                power_w, self.floor_w - self.floor_decay_w_per_s * dt_s
            )
            if power_w > self.quantile_estimate_w:
                self.quantile_estimate_w += self.step_w * self.quantile
            else:
                self.quantile_estimate_w -= self.step_w * (1.0 - self.quantile)
            self.quantile_estimate_w = max(0.0, self.quantile_estimate_w)
        self.observations += 1
        target_w = max(self.quantile_estimate_w, self.floor_w)
        delta_w = target_w - self.prediction_w
        max_up_w = self.max_step_up_w_per_s * dt_s
        max_down_w = self.max_step_down_w_per_s * dt_s
        if delta_w > max_up_w:
            delta_w = max_up_w
        elif delta_w < -max_down_w:
            delta_w = -max_down_w
        self.prediction_w += delta_w
        return self.prediction_w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerHistoryPredictor(q{self.quantile:.2f}="
            f"{self.quantile_estimate_w:.1f}W, floor={self.floor_w:.1f}W, "
            f"prediction={self.prediction_w:.1f}W, n={self.observations})"
        )


class PredictedHeadroomFilter(PowerTokenBucket):
    """A joule bucket whose refill tracks the predicted headroom.

    Structurally the Token scheme's shaper, but the refill rate is not
    fixed at bind time: :class:`PredictionScheme` re-points it every
    control slot at the dynamic headroom of the *effective* (history-
    inflated) budget.  Tokens accrued under the old rate are settled
    before the switch, so the slot boundary is exact.
    """

    def set_refill_rate_w(self, rate_w: float, now: float) -> None:
        """Re-target the refill at *rate_w* (settling accrual first)."""
        self._refill(now)
        self.refill_rate_w = max(1e-6, float(rate_w))


class PredictionScheme(PowerManagementScheme):
    """Prediction-based oversubscription (Table 2, sixth row).

    Every control slot feeds the sensed rack power into the
    :class:`PowerHistoryPredictor`, recomputes the effective budget

    ``effective = min(nameplate, supply + gain·max(0, supply − predicted))``

    (predicted draw below supply *earns* extra oversubscription — the
    Azure bet), re-points the admission bucket at the effective
    dynamic headroom, and then acts on the predicted-vs-supply ratio
    through a graded tier ladder:

    * ``healthy`` (ratio < ``WARN_FRACTION``): raise all servers one
      ladder step toward nominal — the prediction says the budget is
      safe, so performance recovers;
    * ``warn`` (< 1): hold levels;
    * ``soft-cap`` (< ``HARD_FRACTION``): step all servers down one
      level;
    * ``hard-cap`` (≥ ``HARD_FRACTION``): fall back to measured-power
      uniform capping against the true supply.

    The ladder is keyed on the **prediction**, not the meter — that is
    the scheme's entire premise and its attack surface.  Slots where
    the measured power violates the true supply while the prediction
    still reads below it are counted in
    ``predict.blind_violation_slots``.

    Parameters
    ----------
    horizon_s:
        History horizon: the observed-max floor decays from nameplate
        to zero over roughly this many seconds, and the quantile step
        is sized so the estimate can traverse the nameplate range in
        the same window.
    hysteresis:
        Raise-guard band of the hard-cap fallback controller.

    The forecast percentile, the tier thresholds, the ramp clamps, the
    oversubscription gain and the bucket depth are module constants.
    """

    name = "prediction"

    def __init__(self, horizon_s: float = 60.0, hysteresis: float = 0.02) -> None:
        super().__init__(hysteresis)
        check_positive("horizon_s", horizon_s)
        self.horizon_s = float(horizon_s)
        self.predictor: Optional[PowerHistoryPredictor] = None
        self.filter: Optional[PredictedHeadroomFilter] = None
        self.last_tier: str = TIER_HARD

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine, rack, budget, battery, slot_s, topology=None) -> None:
        """Attach infrastructure; size the predictor and the bucket."""
        super().bind(engine, rack, budget, battery, slot_s, topology)
        nameplate_w = rack.nameplate_w
        self.predictor = PowerHistoryPredictor(
            quantile=QUANTILE,
            # Start pessimistic at nameplate: until history accrues the
            # scheme behaves like conservative capping, then earns its
            # oversubscription as the forecast ramps down.
            initial_w=nameplate_w,
            step_w=nameplate_w * self.slot_s / self.horizon_s,
            floor_decay_w_per_s=nameplate_w / self.horizon_s,
            max_step_up_w_per_s=nameplate_w * RAMP_UP_FRACTION / self.slot_s,
            max_step_down_w_per_s=nameplate_w * RAMP_DOWN_FRACTION / self.slot_s,
        )
        model = rack.power_model

        def cost(request: Request) -> float:
            """Token price: the request's model energy at nominal f."""
            return model.energy_per_request(request.rtype, 1.0)

        idle_floor_w = rack.idle_floor()
        self.filter = PredictedHeadroomFilter(
            refill_rate_w=max(1e-6, budget.supply_w - idle_floor_w),
            burst_s=BURST_S,
            energy_cost_fn=cost,
        )
        self.filter._last_refill = engine.now

    def admission_filter(self) -> Optional[PredictedHeadroomFilter]:
        """The predicted-headroom bucket (installed on the NLB)."""
        self._require_bound()
        return self.filter

    # ------------------------------------------------------------------
    # Budget arithmetic
    # ------------------------------------------------------------------
    def effective_budget_w(self) -> float:
        """Supply plus the oversubscription the prediction has earned.

        Never below the true supply (headroom only ever *adds*), never
        above rack nameplate (physics caps what admission could use).
        """
        self._require_bound()
        headroom_w = max(
            0.0, self.budget.supply_w - self.predictor.prediction_w
        )
        inflated_w = self.budget.supply_w + OVERSUBSCRIPTION_GAIN * headroom_w
        return min(self.rack.nameplate_w, inflated_w)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Observe → predict → re-budget admission → tier ladder."""
        self._require_bound()
        counters = self.engine.obs.counters
        measured_w = self.current_power()
        predicted_w = self.predictor.observe(measured_w, self.slot_s)
        supply_w = self.budget.supply_w
        self.filter.set_refill_rate_w(
            self.effective_budget_w() - self.rack.idle_floor(),
            self.engine.now,
        )
        ratio = predicted_w / supply_w
        if measured_w > supply_w and ratio < 1.0:
            # The blind spot: the rack is really over budget but the
            # forecast has not caught up — the window the poisoning
            # attack manufactures.
            counters.inc("predict.blind_violation_slots")
        ladder = self.rack.ladder
        if ratio < WARN_FRACTION:
            self.last_tier = TIER_HEALTHY
            counters.inc("predict.healthy_slots")
            current = min(s.level for s in self.rack.servers)
            if current < ladder.max_level:
                self.rack.set_all_levels(current + 1)
        elif ratio < 1.0:
            self.last_tier = TIER_WARN
            counters.inc("predict.warn_slots")
        elif ratio < HARD_FRACTION:
            self.last_tier = TIER_SOFT
            counters.inc("predict.soft_cap_slots")
            current = min(s.level for s in self.rack.servers)
            self.rack.set_all_levels(max(0, current - 1))
        else:
            self.last_tier = TIER_HARD
            counters.inc("predict.hard_cap_slots")
            self.apply_uniform_cap(supply_w)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready audit record of the predictor's current verdict."""
        self._require_bound()
        return {
            "scheme": self.name,
            "quantile": QUANTILE,
            "horizon_s": self.horizon_s,
            "observations": self.predictor.observations,
            "prediction_w": self.predictor.prediction_w,
            "quantile_estimate_w": self.predictor.quantile_estimate_w,
            "floor_w": self.predictor.floor_w,
            "supply_w": self.budget.supply_w,
            "effective_budget_w": self.effective_budget_w(),
            "tier": self.last_tier,
            "admitted": self.filter.admitted,
            "dropped": self.filter.dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.bound:
            return "PredictionScheme(unbound)"
        return (
            f"PredictionScheme(prediction={self.predictor.prediction_w:.0f}W"
            f"/{self.budget.supply_w:.0f}W, tier={self.last_tier})"
        )
