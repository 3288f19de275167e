"""Alibaba cluster-trace substrate.

The paper drives its normal-user population from the 2018 Alibaba
container trace ("12 hours long running log of 1.3k machines").  The
real trace is not redistributable here, so this module provides:

* :class:`SyntheticAlibabaTrace` — a generator producing per-machine
  CPU-utilisation series with the trace's published statistical
  character: ~40 % mean utilisation, a diurnal envelope, AR(1)
  short-range correlation and occasional heavy-tailed bursts; and
* :func:`load_machine_usage` — a parser for the real
  ``machine_usage.csv`` schema, so the genuine trace is a drop-in
  replacement when available.

Either source reduces to a :class:`ClusterTrace`, whose normalised
aggregate-load curve modulates the legitimate arrival rate
(:meth:`ClusterTrace.to_rate_function`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .._validation import check_fraction, check_int, check_positive, require

__all__ = [
    "TraceSummary",
    "ClusterTrace",
    "SyntheticAlibabaTrace",
    "load_machine_usage",
    "write_machine_usage",
]

#: Columns of the v2018 ``machine_usage.csv`` file, in on-disk order.
MACHINE_USAGE_COLUMNS = (
    "machine_id",
    "time_stamp",
    "cpu_util_percent",
    "mem_util_percent",
    "mem_gps",
    "mkpi",
    "net_in",
    "net_out",
    "disk_io_percent",
)

#: The synthetic trace's published characteristics: mean utilisation,
#: diurnal amplitude and period, AR(1) coefficient and burst scale.
MEAN_UTIL = 0.40
DIURNAL_AMPLITUDE = 0.15
DAY_PERIOD_S = 86400.0
AR1_COEFF = 0.9
BURST_SCALE = 0.25


@dataclass(frozen=True)
class TraceSummary:
    """Descriptive statistics of a cluster trace."""

    num_machines: int
    duration_s: float
    interval_s: float
    mean_util: float
    p95_util: float
    max_util: float

    def __str__(self) -> str:
        return (
            f"{self.num_machines} machines x {self.duration_s / 3600:.1f} h "
            f"@ {self.interval_s:.0f}s; util mean={self.mean_util:.2f} "
            f"p95={self.p95_util:.2f} max={self.max_util:.2f}"
        )


class ClusterTrace:
    """A (machines × intervals) utilisation matrix with helpers.

    Parameters
    ----------
    utilization:
        Array of shape ``(num_machines, num_intervals)`` with values in
        ``[0, 1]``.
    interval_s:
        Sampling period of each column.
    """

    def __init__(self, utilization: np.ndarray, interval_s: float) -> None:
        util = np.asarray(utilization, dtype=float)
        require(util.ndim == 2, f"utilization must be 2-D, got shape {util.shape}")
        require(util.size > 0, "utilization must be non-empty")
        check_positive("interval_s", interval_s)
        if np.any(util < 0) or np.any(util > 1):
            raise ValueError("utilization values must lie in [0, 1]")
        self.utilization = util
        self.interval_s = float(interval_s)

    @property
    def num_machines(self) -> int:
        """Number of machine rows."""
        return self.utilization.shape[0]

    @property
    def num_intervals(self) -> int:
        """Number of sampling intervals."""
        return self.utilization.shape[1]

    @property
    def duration_s(self) -> float:
        """Trace duration in seconds."""
        return self.num_intervals * self.interval_s

    def aggregate_load(self) -> np.ndarray:
        """Cluster-mean utilisation per interval (1-D array)."""
        return self.utilization.mean(axis=0)

    def normalized_load(self) -> np.ndarray:
        """Aggregate load rescaled so its maximum is 1."""
        agg = self.aggregate_load()
        peak = float(agg.max())
        if peak <= 0:
            return np.zeros_like(agg)
        return agg / peak

    def summary(self) -> TraceSummary:
        """Descriptive statistics (vectorised over the whole matrix)."""
        flat = self.utilization.ravel()
        return TraceSummary(
            num_machines=self.num_machines,
            duration_s=self.duration_s,
            interval_s=self.interval_s,
            mean_util=float(flat.mean()),
            p95_util=float(np.percentile(flat, 95)),
            max_util=float(flat.max()),
        )

    def to_rate_function(
        self,
        base_rate: float,
        peak_rate: float,
        loop: bool = True,
    ) -> Callable[[float], float]:
        """Map the load curve onto an arrival-rate envelope λ(t).

        Load 0 maps to *base_rate*, the trace's peak maps to
        *peak_rate*; intermediate values interpolate linearly.  With
        ``loop=True`` the curve repeats past the trace horizon, so a
        simulation longer than the trace keeps a sensible envelope.
        """
        check_positive("base_rate", base_rate)
        check_positive("peak_rate", peak_rate)
        require(peak_rate >= base_rate, "peak_rate must be >= base_rate")
        load = self.normalized_load()
        n = len(load)
        duration_s = self.duration_s
        span = peak_rate - base_rate

        def rate(t: float) -> float:
            """The arrival-rate envelope λ(t)."""
            if t < 0:
                raise ValueError(f"t must be >= 0, got {t}")
            if loop:
                t = t % duration_s
            elif t >= duration_s:
                return base_rate
            idx = min(int(t / self.interval_s), n - 1)
            return base_rate + span * float(load[idx])

        return rate


class SyntheticAlibabaTrace:
    """Generator of Alibaba-2018-like container utilisation traces.

    The model is a diurnal envelope (the 12 h trace covers roughly one
    trough-to-peak half-cycle) plus a per-machine AR(1) residual and
    rare Pareto-tailed bursts:

    ``u_m(k) = clip(base + diurnal(k) + ar1_m(k) + burst_m(k), 0, 1)``

    The shape follows the published trace characteristics (the module
    constants).  *ar1_sigma*, the residual's standard deviation, and
    *burst_prob*, each machine's per-interval burst probability, set
    the noise; lower them for a quieter trace.
    """

    def __init__(self, ar1_sigma: float = 0.05, burst_prob: float = 0.002) -> None:
        check_positive("ar1_sigma", ar1_sigma)
        check_fraction("burst_prob", burst_prob)
        self.ar1_sigma = ar1_sigma
        self.burst_prob = burst_prob

    def generate(
        self,
        num_machines: int = 64,
        duration_s: float = 12 * 3600.0,
        interval_s: float = 30.0,
        seed: int = 0,
    ) -> ClusterTrace:
        """Produce a :class:`ClusterTrace` (fully vectorised).

        The defaults scale the paper's 1.3 k machines down to 64 — the
        aggregate load curve, which is all the simulation consumes, is
        statistically indistinguishable at that size because machine
        residuals average out.
        """
        check_int("num_machines", num_machines, minimum=1)
        check_positive("duration_s", duration_s)
        check_positive("interval_s", interval_s)
        rng = np.random.default_rng(seed)
        n = int(round(duration_s / interval_s))
        require(n >= 1, "duration must cover at least one interval")

        t = np.arange(n) * interval_s
        # Start the 12 h window on the rising edge of the diurnal cycle.
        phase = 2 * np.pi * (t / DAY_PERIOD_S) - np.pi / 2
        diurnal = DIURNAL_AMPLITUDE * np.sin(phase)

        # AR(1) residual per machine, vectorised across machines via a
        # scan over time (n is small: 1440 for 12 h @ 30 s).
        noise = rng.normal(0.0, self.ar1_sigma, size=(num_machines, n))
        resid = np.empty_like(noise)
        resid[:, 0] = noise[:, 0]
        a = AR1_COEFF
        for k in range(1, n):
            resid[:, k] = a * resid[:, k - 1] + noise[:, k]
        # Stationary variance correction so residual spread is sigma.
        resid *= math.sqrt(max(1e-12, 1.0 - a * a))

        bursts = np.zeros((num_machines, n))
        mask = rng.random((num_machines, n)) < self.burst_prob
        if mask.any():
            bursts[mask] = BURST_SCALE * (
                1.0 + rng.pareto(2.5, size=int(mask.sum()))
            )
            bursts = np.minimum(bursts, 3 * BURST_SCALE)

        util = np.clip(MEAN_UTIL + diurnal[None, :] + resid + bursts, 0.0, 1.0)
        return ClusterTrace(util, interval_s)


def load_machine_usage(
    path: str,
    interval_s: float = 10.0,
    max_machines: Optional[int] = None,
) -> ClusterTrace:
    """Parse a real Alibaba-v2018 ``machine_usage.csv`` into a trace.

    The file has no header; columns follow :data:`MACHINE_USAGE_COLUMNS`.
    Rows are binned onto a uniform ``interval_s`` grid per machine;
    missing bins carry the previous value forward.
    """
    check_positive("interval_s", interval_s)
    per_machine: dict = {}
    t_min, t_max = math.inf, -math.inf
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or len(row) < 3:
                continue
            machine, ts, cpu = row[0], row[1], row[2]
            if cpu == "":
                continue
            t = float(ts)
            u = float(cpu) / 100.0
            per_machine.setdefault(machine, []).append((t, min(max(u, 0.0), 1.0)))
            t_min = min(t_min, t)
            t_max = max(t_max, t)
    require(bool(per_machine), f"no usable rows in {path}")
    machines: List[str] = sorted(per_machine)
    if max_machines is not None:
        check_int("max_machines", max_machines, minimum=1)
        machines = machines[:max_machines]
    # Samples at t_min and t_max are both inside the grid, hence +1.
    n = max(1, int(math.floor((t_max - t_min) / interval_s)) + 1)
    util = np.zeros((len(machines), n))
    for i, machine in enumerate(machines):
        rows = sorted(per_machine[machine])
        last = 0.0
        j = 0
        for k in range(n):
            bin_end = t_min + (k + 1) * interval_s
            while j < len(rows) and rows[j][0] < bin_end:
                last = rows[j][1]
                j += 1
            util[i, k] = last
    return ClusterTrace(util, interval_s)


def write_machine_usage(trace: ClusterTrace, path: str) -> None:
    """Serialise a trace in the real ``machine_usage.csv`` schema.

    Round-trips through :func:`load_machine_usage`; useful for fixtures
    and for exporting synthetic traces to external tools.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(trace.num_machines):
            for k in range(trace.num_intervals):
                writer.writerow(
                    [
                        # Zero-padded so lexicographic machine order in the
                        # loader matches numeric order.
                        f"m_{i:06d}",
                        f"{k * trace.interval_s:.0f}",
                        f"{trace.utilization[i, k] * 100:.2f}",
                        "",
                        "",
                        "",
                        "",
                        "",
                        "",
                    ]
                )
