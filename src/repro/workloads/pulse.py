"""Pulse (duty-cycled) DOPE attack.

An extension of the threat model the paper's battery discussion points
at: a smart adversary does not need a *sustained* peak.  Pulsing the
flood on and off

* keeps the time-averaged request rate even further below detection
  thresholds,
* repeatedly forces battery-backed schemes through
  discharge/shallow-recharge cycles (batteries recharge far slower
  than they discharge, so a duty cycle tuned to the recharge rate
  ratchets the SoC down), and
* whipsaws DVFS controllers between throttle and recovery.

:class:`PulseAttacker` wraps a closed-loop flood with an on/off square
wave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .._validation import check_fraction, check_int, check_positive
from ..network.sources import SourceRegistry
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_CONTROL
from .catalog import TrafficClass, dope_mix
from .generator import ClosedLoopGenerator, Dispatch, clients_for_rate

__all__ = [
    "PulseStats",
    "PulseAttacker",
]


@dataclass
class PulseStats:
    """On/off transition log."""

    pulses: int = 0
    transitions: List[tuple] = field(default_factory=list)


class PulseAttacker:
    """Square-wave DOPE flood.

    Parameters
    ----------
    engine, dispatch, registry, rng:
        Simulation wiring.
    rate_rps:
        Aggregate rate during the *on* phase.
    period_s:
        Full cycle length.
    duty:
        Fraction of the period spent attacking.
    num_agents, think_s:
        As for the plain flood.

    Every pulse requests the DOPE attack mix (``dope_mix()``).
    """

    def __init__(
        self,
        engine: EventEngine,
        dispatch: Dispatch,
        registry: SourceRegistry,
        rng: np.random.Generator,
        rate_rps: float = 300.0,
        period_s: float = 60.0,
        duty: float = 0.5,
        num_agents: int = 20,
        think_s: float = 0.2,
        label: str = "pulse-dope",
    ) -> None:
        check_positive("rate_rps", rate_rps)
        check_positive("period_s", period_s)
        check_fraction("duty", duty, inclusive=False)
        check_int("num_agents", num_agents, minimum=1)
        self.engine = engine
        self.period_s = float(period_s)
        self.duty = float(duty)
        self.rate_rps = float(rate_rps)
        self.stats = PulseStats()
        pool = registry.allocate(label, TrafficClass.ATTACK, num_agents)
        mix = dope_mix()
        self._clients = clients_for_rate(rate_rps, mix, think_s)
        self.generator = ClosedLoopGenerator(
            engine=engine,
            dispatch=dispatch,
            rng=rng,
            source_pool=pool,
            mix=mix,
            num_clients=self._clients,
            think_s=think_s,
            label=label,
        )
        self._running = False

    @property
    def mean_rate_rps(self) -> float:
        """Time-averaged rate (the figure a rate detector would see)."""
        return self.rate_rps * self.duty

    def start(self, delay_s: float = 0.0) -> None:
        """Begin pulsing after *delay_s* seconds."""
        if self._running:
            raise RuntimeError("pulse attacker already running")
        self._running = True
        self.engine.schedule(delay_s, self._pulse_on)

    def stop(self) -> None:
        """Cease fire at the next transition."""
        self._running = False
        self.generator.stop()

    def _pulse_on(self) -> None:
        if not self._running:
            return
        self.stats.pulses += 1
        self.stats.transitions.append((self.engine.now, "on"))
        self.generator.start(0.0)
        self.engine.schedule(
            self.period_s * self.duty, self._pulse_off, priority=PRIORITY_CONTROL
        )

    def _pulse_off(self) -> None:
        self.stats.transitions.append((self.engine.now, "off"))
        self.generator.stop()
        if self._running:
            self.engine.schedule(
                self.period_s * (1.0 - self.duty),
                self._pulse_on,
                priority=PRIORITY_CONTROL,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PulseAttacker(rate={self.rate_rps:.0f}rps, duty={self.duty:.2f}, "
            f"period={self.period_s:.0f}s, pulses={self.stats.pulses})"
        )
