"""Response-time statistics.

The paper's SLA metrics: mean response time (Fig. 16), the 90th/95th/
99th percentile tail latencies (Figs. 15b, 17) plus min/max.  All
percentiles are exact order statistics over the full sample (NumPy's
linear-interpolation definition), never streaming approximations — a
10-minute window at 1 000 req/s is only ~600 k floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..network.request import CompletionRecord

__all__ = [
    "LatencyStats",
    "slowdown",
]


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one response-time sample (all values in seconds)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p95: float
    p99: float

    @classmethod
    def from_times(cls, times: Sequence[float]) -> "LatencyStats":
        """Compute exact statistics from raw response times."""
        arr = np.asarray(times, dtype=float)
        if arr.size == 0:
            nan = float("nan")
            return cls(0, nan, nan, nan, nan, nan, nan, nan)
        p50, p90, p95, p99 = np.percentile(arr, [50, 90, 95, 99])
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            p50=float(p50),
            p90=float(p90),
            p95=float(p95),
            p99=float(p99),
        )

    @classmethod
    def from_records(cls, records: Iterable[CompletionRecord]) -> "LatencyStats":
        """Statistics over the completed records in *records*."""
        return cls.from_times([r.response_time for r in records if r.completed])

    def percentile(self, p: float) -> float:
        """Named-percentile accessor (50/90/95/99 only).

        Raises :class:`ValueError` for any other value — including
        fractional ones like ``99.9`` or ``50.5``, which an ``int()``
        coercion used to silently truncate onto the stored p99/p50.
        """
        table = {50: self.p50, 90: self.p90, 95: self.p95, 99: self.p99}
        try:
            return table[p]
        except (KeyError, TypeError):
            raise ValueError(f"only percentiles {sorted(table)} are stored") from None

    def as_millis(self) -> dict:
        """All statistics converted to milliseconds (reporting helper)."""
        def ms(x: float) -> float:
            """Seconds → milliseconds."""
            return x * 1e3

        return {
            "count": self.count,
            "mean_ms": ms(self.mean),
            "min_ms": ms(self.minimum),
            "max_ms": ms(self.maximum),
            "p50_ms": ms(self.p50),
            "p90_ms": ms(self.p90),
            "p95_ms": ms(self.p95),
            "p99_ms": ms(self.p99),
        }

    def __str__(self) -> str:
        if self.count == 0:
            return "LatencyStats(empty)"
        return (
            f"n={self.count} mean={self.mean * 1e3:.1f}ms "
            f"p90={self.p90 * 1e3:.1f}ms p95={self.p95 * 1e3:.1f}ms "
            f"p99={self.p99 * 1e3:.1f}ms max={self.maximum * 1e3:.1f}ms"
        )


def slowdown(stats: LatencyStats, baseline: LatencyStats) -> dict:
    """Ratio of each latency statistic to a *baseline* run's.

    The paper reports attacks as multipliers ("7.4× longer mean
    response time, 8.9× the 90th-percentile tail"); this computes those
    multipliers for any pair of runs.
    """
    if baseline.count == 0 or stats.count == 0:
        raise ValueError("both samples must be non-empty")

    def ratio(a: float, b: float) -> float:
        """Safe ratio (infinite for a zero baseline)."""
        return a / b if b > 0 else float("inf")

    return {
        "mean": ratio(stats.mean, baseline.mean),
        "p50": ratio(stats.p50, baseline.p50),
        "p90": ratio(stats.p90, baseline.p90),
        "p95": ratio(stats.p95, baseline.p95),
        "p99": ratio(stats.p99, baseline.p99),
    }
