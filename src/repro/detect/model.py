"""Online anomaly scoring with warm-up and hysteresis (detector back end).

A dependency-free streaming z-score model in the shape of the per-source
behavioural scorers used against web-server application floods: the
population of per-source feature vectors defines "normal", and a source
whose vector sits far from the population mean — in units of the
population's own spread — is anomalous.  Both moments are exponentially
weighted, so the baseline tracks legitimate drift (diurnal load, mix
changes) while a flood that arrives faster than the decay constant
stands out.

Design constraints, in order:

* **Deterministic.**  The model draws no random numbers.  Scoring a
  fixed observation sequence is byte-identical on every platform and
  engine execution mode (pure float arithmetic, fixed iteration order
  supplied by the caller).
* **Warm-up.**  Until ``warmup_observations`` vectors have been folded
  in, the population moments are still forming and every verdict is
  "innocent" — the cold-start false-positive guard.
* **Hysteresis.**  A source becomes suspect when its score crosses
  ``enter_threshold`` and stays suspect until the score falls below the
  *lower* ``exit_threshold``: the forwarding pool must not flap on a
  source hovering at the boundary, because every flip reshuffles which
  servers its requests land on.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from .._validation import check_int, check_positive, require
from .features import SourceFeatures

__all__ = ["OnlineAnomalyModel"]

#: Floor of the per-feature standard deviation, in units of the feature
#: itself.  A population that agrees perfectly on a feature would
#: otherwise turn an infinitesimal deviation into an unbounded z-score.
_MIN_STD_FRACTION = 0.05
_MIN_STD_ABS = 1e-6

#: Per-observation retention of the population moments (EW mean and EW
#: mean-of-squares).  With ~one observation per source per control
#: slot, 0.995 remembers a few hundred slots of population history.
DECAY = 0.995
#: Weight of the new observation, ``1.0 - DECAY`` (the same float).
_NEW_WEIGHT = 1.0 - DECAY


class OnlineAnomalyModel:
    """Streaming population z-score with hysteresis verdicts.

    Parameters
    ----------
    warmup_observations:
        Vectors to absorb before any source may be flagged.
    enter_threshold / exit_threshold:
        Hysteresis band on the anomaly score (mean absolute z across
        features).  ``enter > exit`` is required.

    The moments decay by :data:`DECAY` per observation.
    """

    def __init__(
        self,
        warmup_observations: int = 100,
        enter_threshold: float = 1.5,
        exit_threshold: float = 1.0,
    ) -> None:
        check_int("warmup_observations", warmup_observations, minimum=1)
        check_positive("enter_threshold", enter_threshold)
        check_positive("exit_threshold", exit_threshold)
        require(
            enter_threshold > exit_threshold,
            f"enter_threshold ({enter_threshold}) must exceed "
            f"exit_threshold ({exit_threshold}) for hysteresis to hold",
        )
        self.warmup_observations = warmup_observations
        self.enter_threshold = float(enter_threshold)
        self.exit_threshold = float(exit_threshold)
        self.observations = 0
        self._mean: Tuple[float, ...] = ()
        self._sq_mean: Tuple[float, ...] = ()
        self._suspects: Dict[int, bool] = {}
        self.last_scores: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Population moments
    # ------------------------------------------------------------------
    # The float operations of observe() and score() and their order are
    # the contract: tests/test_detect_bitexact.py pins both bit for bit
    # against a verbatim reference.  ``x if x > 0.0 else 0.0`` is
    # ``max(0.0, x)`` and ``b if b > a else a`` is ``max(a, b)``, NaN
    # included.

    def observe(self, features: SourceFeatures) -> None:
        """Fold one feature vector into the population moments."""
        if not self._mean:
            self._mean = tuple(features)
            self._sq_mean = tuple([v * v for v in features])
        else:
            d = DECAY
            w = _NEW_WEIGHT
            self._mean = tuple(
                [d * m + w * v for m, v in zip(self._mean, features)]
            )
            self._sq_mean = tuple(
                [d * s + w * v * v for s, v in zip(self._sq_mean, features)]
            )
        self.observations += 1

    def score(self, features: SourceFeatures) -> float:
        """Anomaly score: mean absolute z across the feature vector."""
        if not self._mean:
            return 0.0
        sqrt = math.sqrt
        total = 0.0
        for value, mean, sq_mean in zip(features, self._mean, self._sq_mean):
            variance = sq_mean - mean * mean
            std = sqrt(variance) if variance > 0.0 else 0.0
            floor = _MIN_STD_FRACTION * abs(mean)
            if not floor > _MIN_STD_ABS:
                floor = _MIN_STD_ABS
            if floor > std:
                std = floor
            total += abs(value - mean) / std
        return total / len(features)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    @property
    def warmed_up(self) -> bool:
        """Whether the warm-up period has elapsed."""
        return self.observations >= self.warmup_observations

    def update(self, source_id: int, features: SourceFeatures) -> bool:
        """Score *source_id*, fold the vector in, return the verdict.

        Scoring happens against the moments *before* this vector is
        absorbed, so a source never dilutes the baseline it is being
        judged against within the same call.  The verdict applies
        warm-up and the enter/exit hysteresis band.
        """
        value = self.score(features)
        self.observe(features)
        self.last_scores[source_id] = value
        if not self.warmed_up:
            self._suspects[source_id] = False
            return False
        currently = self._suspects.get(source_id, False)
        if currently:
            verdict = value >= self.exit_threshold
        else:
            verdict = value >= self.enter_threshold
        self._suspects[source_id] = verdict
        return verdict

    def fingerprint(self) -> Dict[str, object]:
        """JSON-ready identity of this model configuration."""
        return {
            "warmup_observations": self.warmup_observations,
            "enter_threshold": self.enter_threshold,
            "exit_threshold": self.exit_threshold,
            "decay": DECAY,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flagged = sum(1 for v in self._suspects.values() if v)
        return (
            f"OnlineAnomalyModel(obs={self.observations}, "
            f"suspects={flagged}, warmed_up={self.warmed_up})"
        )
