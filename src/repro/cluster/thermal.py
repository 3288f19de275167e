"""Thermal substrate: server temperature and cooling power.

DOPE is defined as "a new class of low-rate but high-power requests
targeting unconventional layer of targeted resources (e.g., energy,
power, and cooling)".  Power is only half of that sentence; this module
supplies the cooling half:

* :class:`ServerThermalModel` — a first-order RC thermal model per
  server.  Between power changes the trajectory is the exact
  exponential ``T(t+dt) = T_ss + (T - T_ss)·e^(−dt/τ)`` with steady
  state ``T_ss = T_inlet + P·R_th``, so sustained high power walks the
  die toward its trip point.
* :class:`ThermalMonitor` — samples every server on an interval,
  advances the RC states, fires **emergency thermal throttling** (force
  the deepest P-state) above ``T_trip`` and releases it below
  ``T_resume`` — the protection layer that exists below every software
  power manager.
* :func:`cooling_power_w` — CRAC/chiller power for a given IT load via
  a COP model, so facility-level energy can include the cooling tax a
  DOPE attack inflicts even when the power budget holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .._validation import check_positive, require
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_MONITOR
from .rack import Rack
from .server import Server

__all__ = [
    "ServerThermalModel",
    "ThermalSample",
    "ThermalStats",
    "ThermalMonitor",
    "cooling_power_w",
]


class ServerThermalModel:
    """First-order RC thermal model of one server.

    Parameters
    ----------
    r_th_c_per_w:
        Thermal resistance (°C per watt): steady-state rise above the
        inlet per watt of dissipated power.
    tau_s:
        Thermal time constant.
    t_inlet_c:
        Cold-aisle inlet temperature.
    """

    __slots__ = ("r_th", "tau", "t_inlet", "temperature_c", "_last_t")

    def __init__(
        self,
        r_th_c_per_w: float = 0.45,
        tau_s: float = 60.0,
        t_inlet_c: float = 25.0,
    ) -> None:
        check_positive("r_th_c_per_w", r_th_c_per_w)
        check_positive("tau_s", tau_s)
        self.r_th = float(r_th_c_per_w)
        self.tau = float(tau_s)
        self.t_inlet = float(t_inlet_c)
        self.temperature_c = self.t_inlet
        # Anchored lazily on the first advance() so that a model created
        # when the engine clock is already past zero (start_time_s > 0,
        # or a monitor attached mid-run) does not integrate a phantom
        # warm-up interval [0, now) at the current power.
        self._last_t: Optional[float] = None

    def steady_state_c(self, power_w: float) -> float:
        """Temperature the die converges to at constant *power_w*."""
        return self.t_inlet + power_w * self.r_th

    def advance(self, now: float, power_w: float) -> float:
        """Advance the RC state to *now* assuming *power_w* since last call.

        The first call only anchors the integration clock — there is no
        earlier observation to integrate from.
        """
        if self._last_t is None:
            self._last_t = now
            return self.temperature_c
        dt = now - self._last_t
        if dt > 0:
            t_ss = self.steady_state_c(power_w)
            decay = math.exp(-dt / self.tau)
            self.temperature_c = t_ss + (self.temperature_c - t_ss) * decay
            self._last_t = now
        return self.temperature_c

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServerThermalModel(T={self.temperature_c:.1f}C)"


@dataclass
class ThermalSample:
    """One monitoring snapshot."""

    time_s: float
    temperatures_c: List[float]
    throttled: List[bool]


@dataclass
class ThermalStats:
    """Emergency accounting."""

    emergencies: int = 0
    emergency_server_ids: List[int] = field(default_factory=list)
    samples: List[ThermalSample] = field(default_factory=list)


class ThermalMonitor:
    """Per-server thermal tracking with emergency throttling.

    Parameters
    ----------
    engine, rack:
        Simulation wiring.
    t_trip_c:
        Die temperature that triggers emergency throttling (force the
        bottom of the DVFS ladder).
    t_resume_c:
        Temperature below which the emergency is released (hysteresis
        band below the trip point).
    interval_s:
        Sampling/actuation period.
    model_factory:
        Builds the per-server thermal model (identical by default).
    """

    def __init__(
        self,
        engine: EventEngine,
        rack: Rack,
        t_trip_c: float = 85.0,
        t_resume_c: float = 75.0,
        interval_s: float = 1.0,
        model_factory: Optional[Callable[[], ServerThermalModel]] = None,
    ) -> None:
        require(t_resume_c < t_trip_c, "t_resume_c must be below t_trip_c")
        check_positive("interval_s", interval_s)
        self.engine = engine
        self.rack = rack
        self.t_trip = float(t_trip_c)
        self.t_resume = float(t_resume_c)
        self.interval_s = float(interval_s)
        factory = model_factory or ServerThermalModel
        self.models: Dict[int, ServerThermalModel] = {
            s.server_id: factory() for s in rack.servers
        }
        self._emergency: Dict[int, int] = {}  # server_id -> saved level
        self.stats = ThermalStats()
        self._stop: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic sampling and protection."""
        if self._stop is not None:
            raise RuntimeError("thermal monitor already started")
        self._stop = self.engine.every(
            self.interval_s, self.step, priority=PRIORITY_MONITOR
        )

    def stop(self) -> None:
        """Stop sampling (emergency states are left as-is)."""
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    # Protection loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance every model; trip or release emergencies."""
        now = self.engine.now
        temps, throttled = [], []
        for server in self.rack.servers:
            model = self.models[server.server_id]
            temp = model.advance(now, server.current_power())
            temps.append(temp)
            in_emergency = server.server_id in self._emergency
            if not in_emergency and temp >= self.t_trip:
                self._emergency[server.server_id] = server.level
                server.set_level(0)
                self.stats.emergencies += 1
                self.stats.emergency_server_ids.append(server.server_id)
                in_emergency = True
            elif in_emergency and temp <= self.t_resume:
                server.set_level(self._emergency.pop(server.server_id))
                in_emergency = False
            throttled.append(in_emergency)
        self.stats.samples.append(ThermalSample(now, temps, throttled))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def in_emergency(self, server: Server) -> bool:
        """Whether *server* is currently emergency-throttled."""
        return server.server_id in self._emergency

    def max_temperature(self) -> float:
        """Hottest die right now."""
        return max(m.temperature_c for m in self.models.values())


def cooling_power_w(it_power_w: float, cop: float = 3.0) -> float:
    """CRAC/chiller power needed to remove *it_power_w* of heat.

    A coefficient-of-performance model: every IT watt costs ``1/COP``
    watts of cooling.  Typical raised-floor data centers sit near
    COP ≈ 3 (PUE ≈ 1.33 from cooling alone).
    """
    check_positive("cop", cop)
    if it_power_w < 0:
        raise ValueError(f"it_power_w must be >= 0, got {it_power_w}")
    return it_power_w / cop
