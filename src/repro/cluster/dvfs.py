"""DVFS frequency ladder and controller.

The paper's testbed exposes ACPI P-states from 1.2 GHz to 2.4 GHz in
0.1 GHz steps (13 levels).  All power-management schemes in the paper
act by moving servers along this ladder, so the ladder is modelled as a
first-class immutable object and every scheme manipulates *levels*
(indices), never raw frequencies.
"""

from __future__ import annotations

from typing import List, Tuple

from .._validation import check_int

__all__ = ["FrequencyLadder"]

#: The paper's ladder: 1.2–2.4 GHz at 0.1 GHz intervals.
PAPER_FREQUENCIES_GHZ: Tuple[float, ...] = tuple(
    round(1.2 + 0.1 * i, 1) for i in range(13)
)


class FrequencyLadder:
    """The paper's CPU operating frequencies, :data:`PAPER_FREQUENCIES_GHZ`.

    Level 0 is the *lowest* frequency; the last level is nominal/maximum.
    """

    __slots__ = ("_freqs",)

    def __init__(self) -> None:
        self._freqs: Tuple[float, ...] = PAPER_FREQUENCIES_GHZ

    @property
    def frequencies_ghz(self) -> Tuple[float, ...]:
        """All frequencies, ascending."""
        return self._freqs

    @property
    def max_level(self) -> int:
        """Index of the nominal (highest) frequency."""
        return len(self._freqs) - 1

    @property
    def f_max(self) -> float:
        """Nominal frequency in GHz."""
        return self._freqs[-1]

    def frequency(self, level: int) -> float:
        """Frequency in GHz at *level*."""
        self._check_level(level)
        return self._freqs[level]

    def ratio(self, level: int) -> float:
        """``f(level) / f_max`` — the knob every model consumes."""
        self._check_level(level)
        return self._freqs[level] / self._freqs[-1]

    def clamp(self, level: int) -> int:
        """Clamp an arbitrary integer onto the ladder."""
        return max(0, min(int(level), self.max_level))

    def step_down(self, level: int, steps: int = 1) -> int:
        """Lower *level* by *steps*, saturating at the bottom."""
        self._check_level(level)
        check_int("steps", steps, minimum=0)
        return max(0, level - steps)

    def step_up(self, level: int, steps: int = 1) -> int:
        """Raise *level* by *steps*, saturating at nominal."""
        self._check_level(level)
        check_int("steps", steps, minimum=0)
        return min(self.max_level, level + steps)

    def ratios(self) -> List[float]:
        """All frequency ratios, ascending (vector form for sweeps)."""
        f_max = self._freqs[-1]
        return [f / f_max for f in self._freqs]

    def _check_level(self, level: int) -> None:
        check_int("level", level)
        if not 0 <= level < len(self._freqs):
            raise ValueError(
                f"level {level} outside ladder [0, {len(self._freqs) - 1}]"
            )

    def __len__(self) -> int:
        return len(self._freqs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrequencyLadder({self._freqs[0]:.1f}..{self._freqs[-1]:.1f} GHz, "
            f"{len(self._freqs)} levels)"
        )
