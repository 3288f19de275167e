"""Empirical CDFs (Figs. 4b, 5a and 10 are all power CDFs).

A tiny exact-empirical-CDF helper: sorted-sample evaluation, quantile
inversion, and the normalised-to-nameplate form the paper plots power
distributions in.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._validation import check_positive, require

__all__ = ["EmpiricalCDF"]


class EmpiricalCDF:
    """Exact empirical distribution of a 1-D sample."""

    def __init__(self, samples: Sequence[float]) -> None:
        arr = np.asarray(samples, dtype=float)
        require(arr.size > 0, "EmpiricalCDF needs at least one sample")
        require(bool(np.all(np.isfinite(arr))), "samples must be finite")
        self._sorted = np.sort(arr)

    @property
    def n(self) -> int:
        """Sample size."""
        return int(self._sorted.size)

    @property
    def values(self) -> np.ndarray:
        """Sorted sample (read-only view)."""
        return self._sorted

    def evaluate(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """``F(x) = P[X <= x]`` (vectorised)."""
        result = np.searchsorted(self._sorted, x, side="right") / self.n
        if np.isscalar(x):
            return float(result)
        return result

    def quantile(self, q: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Inverse CDF via linear interpolation (``q`` in [0, 1])."""
        result = np.quantile(self._sorted, q)
        if np.isscalar(q):
            return float(result)
        return np.asarray(result)

    def normalized(self, reference: float) -> "EmpiricalCDF":
        """CDF of the sample divided by *reference* (e.g. nameplate power)."""
        check_positive("reference", reference)
        return EmpiricalCDF(self._sorted / reference)

    def steps(self) -> tuple:
        """``(x, F(x))`` arrays for a staircase plot of the CDF."""
        x = self._sorted
        y = np.arange(1, self.n + 1) / self.n
        return x, y

    def median(self) -> float:
        """50th percentile."""
        return self.quantile(0.5)

    def spread(self) -> float:
        """P10–P90 spread — "sub-vertical" CDFs have tiny spread."""
        return float(self.quantile(0.9) - self.quantile(0.1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EmpiricalCDF(n={self.n}, median={self.median():.3g}, "
            f"spread={self.spread():.3g})"
        )
