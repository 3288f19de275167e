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
    def observe(self, features: SourceFeatures) -> None:
        """Fold one feature vector into the population moments."""
        vec = features.as_tuple()
        if not self._mean:
            self._mean = tuple(vec)
            self._sq_mean = tuple(v * v for v in vec)
        else:
            d = DECAY
            self._mean = tuple(
                d * m + (1.0 - d) * v for m, v in zip(self._mean, vec)
            )
            self._sq_mean = tuple(
                d * s + (1.0 - d) * v * v for s, v in zip(self._sq_mean, vec)
            )
        self.observations += 1

    def score(self, features: SourceFeatures) -> float:
        """Anomaly score: mean absolute z across the feature vector."""
        if not self._mean:
            return 0.0
        vec = features.as_tuple()
        total = 0.0
        for value, mean, sq_mean in zip(vec, self._mean, self._sq_mean):
            variance = max(0.0, sq_mean - mean * mean)
            std = math.sqrt(variance)
            floor = max(_MIN_STD_ABS, _MIN_STD_FRACTION * abs(mean))
            std = max(std, floor)
            total += abs(value - mean) / std
        return total / len(vec)

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

    def is_suspect(self, source_id: int) -> bool:
        """The source's current hysteresis state."""
        return self._suspects.get(source_id, False)

    def forget(self, source_id: int) -> None:
        """Drop a source's verdict state and last score."""
        self._suspects.pop(source_id, None)
        self.last_scores.pop(source_id, None)

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
