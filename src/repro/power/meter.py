"""Power metering: the time series every figure is drawn from.

The meter samples the rack (and optionally the battery) on a fixed
interval using a monitor-priority event, so each sample observes all
workload activity of its instant but precedes the control action of the
same slot — i.e. it sees the power the *previous* control decision
produced, like a real out-of-band BMC poll.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from .._validation import check_positive
from ..sim.events import PRIORITY_MONITOR
from .battery import Battery

__all__ = [
    "PowerSample",
    "PowerMeter",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.rack import Rack
    from ..sim.engine import EventEngine


class PowerSample:
    """One metering snapshot."""

    __slots__ = ("time_s", "power_w", "mean_level", "battery_soc")

    def __init__(
        self,
        time_s: float,
        power_w: float,
        mean_level: float,
        battery_soc: Optional[float],
    ) -> None:
        self.time_s = time_s
        self.power_w = power_w
        self.mean_level = mean_level
        self.battery_soc = battery_soc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        soc = "-" if self.battery_soc is None else f"{self.battery_soc:.2f}"
        return (
            f"PowerSample(t={self.time_s:.1f}, P={self.power_w:.1f}W, soc={soc})"
        )


class PowerMeter:
    """Fixed-interval sampler of rack power, DVFS level and battery SoC.

    Parameters
    ----------
    engine, rack:
        Simulation engine and the rack to observe.
    interval_s:
        Sampling period (default 1 s — the paper's time-slot).
    battery:
        Optional battery whose SoC is recorded alongside power.
    """

    def __init__(
        self,
        engine: EventEngine,
        rack: Rack,
        interval_s: float = 1.0,
        battery: Optional[Battery] = None,
    ) -> None:
        check_positive("interval_s", interval_s)
        self.engine = engine
        self.rack = rack
        self.interval_s = float(interval_s)
        self.battery = battery
        self.samples: List[PowerSample] = []
        self._stop: Optional[Callable[[], None]] = None

    def start(self) -> None:
        """Begin sampling, taking the first sample immediately."""
        if self._stop is not None:
            raise RuntimeError("meter already started")
        self.sample()
        self._stop = self.engine.every(
            self.interval_s, self.sample, priority=PRIORITY_MONITOR
        )

    def stop(self) -> None:
        """Stop sampling."""
        if self._stop is not None:
            self._stop()
            self._stop = None

    def sample(self) -> PowerSample:
        """Take one snapshot immediately and append it to the history."""
        soc = self.battery.soc_fraction if self.battery is not None else None
        sample = PowerSample(
            time_s=self.engine.now,
            power_w=self.rack.total_power(),
            mean_level=float(np.mean(self.rack.levels())),
            battery_soc=soc,
        )
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    # History access (vectorised)
    # ------------------------------------------------------------------
    def times(self) -> np.ndarray:
        """Sample timestamps (seconds)."""
        return np.array([s.time_s for s in self.samples])

    def powers(self) -> np.ndarray:
        """Sampled rack power (watts)."""
        return np.array([s.power_w for s in self.samples])

    def mean_levels(self) -> np.ndarray:
        """Sampled rack-mean DVFS level."""
        return np.array([s.mean_level for s in self.samples])

    def socs(self) -> np.ndarray:
        """Sampled battery SoC fractions (NaN when no battery attached)."""
        return np.array(
            [np.nan if s.battery_soc is None else s.battery_soc for s in self.samples]
        )

    def peak_power(self) -> float:
        """Maximum sampled power."""
        if not self.samples:
            raise RuntimeError("no samples collected")
        return float(self.powers().max())

    def mean_power(self) -> float:
        """Average sampled power."""
        if not self.samples:
            raise RuntimeError("no samples collected")
        return float(self.powers().mean())

    def time_over(self, threshold_w: float) -> float:
        """Seconds of sampled time with power above *threshold_w*."""
        if len(self.samples) < 2:
            return 0.0
        powers = self.powers()
        return float(np.sum(powers[:-1] > threshold_w) * self.interval_s)

    def window(self, start_s: float, end_s: float) -> "PowerMeter":
        """A detached meter view holding only samples in ``[start, end)``."""
        view = PowerMeter(self.engine, self.rack, self.interval_s, self.battery)
        view.samples = [s for s in self.samples if start_s <= s.time_s < end_s]
        return view

    def __len__(self) -> int:
        return len(self.samples)
