"""Power sensing with injectable measurement faults.

Every scheme's control decisions rest on "what is the rack drawing
right now?".  In the fault-free stack that question is answered by
:meth:`~repro.cluster.rack.Rack.total_power` directly; this module
inserts a sensor abstraction between the rack and the schemes so that
the chaos layer can make the answer *wrong* in the ways real branch
meters are wrong:

* **dropout** — the meter returns nothing for a window (``ok=False``);
* **stale reads** — the meter keeps repeating the value captured at the
  start of the window, honest timestamp included;
* **noise/bias** — Gaussian jitter and a constant offset on every read,
  drawn from a dedicated seeded stream (never the wall clock).

Consumers never read the sensor raw: they go through
:meth:`~repro.power.manager.PowerManagementScheme.current_power`, whose
bounded-staleness guard turns a missing/old reading into last-known-good
(inside the bound) or a worst-case nameplate assumption (beyond it).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .._validation import check_non_negative, check_positive

__all__ = [
    "SensorReading",
    "FaultyPowerSensor",
]


class SensorReading(NamedTuple):
    """One meter observation.

    ``time_s`` is the *measurement* timestamp — under a stale-read
    fault it lags the read time, which is exactly what the staleness
    guard keys on.  ``ok=False`` marks a dropout (no observation; the
    carried value is meaningless).
    """

    power_w: float
    time_s: float
    ok: bool


class FaultyPowerSensor:
    """A rack power sensor with injectable dropout/stale/noise faults.

    Parameters
    ----------
    rack:
        The metered rack (ground truth).
    rng:
        Dedicated seeded generator for measurement noise.  Draws happen
        only while a noise fault is active, so an un-faulted sensor is
        byte-identical to the true sensor.
    """

    def __init__(self, rack, rng: Optional[np.random.Generator] = None) -> None:
        self._rack = rack
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._dropout_until_s = float("-inf")
        self._stale_until_s = float("-inf")
        self._stale_reading: Optional[SensorReading] = None
        self._sigma_w = 0.0
        self._bias_w = 0.0
        self.reads = 0
        self.faulted_reads = 0

    # ------------------------------------------------------------------
    # Fault commands (driven by the injector)
    # ------------------------------------------------------------------
    def start_dropout(self, now: float, duration_s: float) -> None:
        """Return no readings for the next *duration_s* seconds."""
        check_positive("duration_s", duration_s)
        self._dropout_until_s = now + duration_s

    def start_stale(self, now: float, duration_s: float) -> None:
        """Freeze the current reading for the next *duration_s* seconds."""
        check_positive("duration_s", duration_s)
        self._stale_until_s = now + duration_s
        self._stale_reading = SensorReading(self._observe(), now, True)

    def set_noise(self, sigma_w: float, bias_w: float = 0.0) -> None:
        """Apply Gaussian noise (std *sigma_w*) plus *bias_w* to reads."""
        check_non_negative("sigma_w", sigma_w)
        self._sigma_w = float(sigma_w)
        self._bias_w = float(bias_w)

    # ------------------------------------------------------------------
    # Sensor interface
    # ------------------------------------------------------------------
    def read(self, now: float) -> SensorReading:
        """One observation at *now*, through whatever faults are active."""
        self.reads += 1
        if now < self._dropout_until_s:
            self.faulted_reads += 1
            return SensorReading(0.0, now, False)
        if now < self._stale_until_s and self._stale_reading is not None:
            self.faulted_reads += 1
            return self._stale_reading
        return SensorReading(self._observe(), now, True)

    def _observe(self) -> float:
        """True power, plus any configured noise/bias (clamped at 0)."""
        power_w = self._rack.total_power()
        if self._sigma_w > 0.0:
            power_w += float(self._rng.normal(0.0, self._sigma_w))
        power_w += self._bias_w
        return max(0.0, power_w)
