"""DPM — differentiated power management planner (Algorithm 1).

Given a power budget, the current battery cover and a prediction
function, the planner chooses the throttling configuration
``TL(p, q)`` = (suspect-pool level *p*, innocent-pool level *q*) that
satisfies the budget with the least performance loss, searching in the
strict priority order the paper prescribes:

1. keep innocent servers at nominal and throttle only the suspect pool
   (highest suspect level that fits wins);
2. only if the suspect pool pinned at its deepest throttle still
   violates the budget, start lowering the innocent pool too;
3. if even everything-at-minimum violates (idle-floor dominated), fall
   back to the deepest configuration — the physical best effort.

The planner is a pure function of ``(budget, predict)`` so it can be
unit-tested exhaustively; the RPM slot that predicts, plans and
actuates lives in :meth:`repro.core.anti_dope.SuspectPoolScheme.step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .._validation import check_int, check_non_negative
from ..power.manager import check_hysteresis, highest_guarded_level

__all__ = [
    "ThrottlePlan",
    "DPMPlanner",
]

#: predict(suspect_level, innocent_level) -> rack watts at that config.
PowerPredictor = Callable[[int, int], float]


@dataclass(frozen=True)
class ThrottlePlan:
    """One DPM decision: per-pool uniform V/F levels, and whether they fit."""

    suspect_level: int
    innocent_level: int
    feasible: bool


class DPMPlanner:
    """Search for the least-damage throttle configuration.

    Parameters
    ----------
    max_level:
        Top of the DVFS ladder (index of nominal frequency).
    hysteresis:
        Raise-guard band as a fraction of the cap: a pool level is only
        *raised* when the predicted power stays below
        ``cap × (1 − hysteresis)``, preventing level chatter when the
        load sits exactly at the budget.  Must lie in ``[0, 0.5)``.
    """

    def __init__(self, max_level: int, hysteresis: float = 0.02) -> None:
        check_int("max_level", max_level, minimum=0)
        self.max_level = max_level
        self.hysteresis = check_hysteresis(hysteresis)

    def plan(
        self,
        cap_w: float,
        predict: PowerPredictor,
        current_suspect_level: int,
        current_innocent_level: int,
    ) -> ThrottlePlan:
        """Choose ``TL(p, q)`` for the coming slot.

        *cap_w* is the effective budget for the slot (supply plus any
        battery cover the caller has arranged).  *predict* must be
        monotone non-decreasing in both levels — true of any physical
        DVFS power model.
        """
        check_non_negative("cap_w", cap_w)
        self._check_level("current_suspect_level", current_suspect_level)
        self._check_level("current_innocent_level", current_innocent_level)
        guard = cap_w * (1.0 - self.hysteresis)
        top = self.max_level

        # Phase 1: innocent pool at nominal, search the suspect level.
        choice = highest_guarded_level(
            lambda p: predict(p, top), cap_w, guard, top, current_suspect_level
        )
        if choice is not None:
            return ThrottlePlan(suspect_level=choice, innocent_level=top, feasible=True)

        # Phase 2: suspect pool pinned at minimum, search innocent level.
        choice = highest_guarded_level(
            lambda q: predict(0, q), cap_w, guard, top, current_innocent_level
        )
        if choice is not None:
            return ThrottlePlan(suspect_level=0, innocent_level=choice, feasible=True)

        # Phase 3: physically infeasible — deepest throttle everywhere.
        return ThrottlePlan(suspect_level=0, innocent_level=0, feasible=False)

    def _check_level(self, name: str, level: int) -> None:
        check_int(name, level, minimum=0)
        if level > self.max_level:
            raise ValueError(f"{name}={level} exceeds max_level={self.max_level}")
