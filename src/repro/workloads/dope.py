"""The DOPE attacker (paper Section 4, Fig. 12).

DOPE is *adaptive*: the adversary has already profiled the victim's
endpoints offline (it knows which URLs are power-hungry) and at runtime
it walks its aggregate request rate toward the sweet spot of Fig. 11 —
high enough to violate the power budget, low enough per agent to stay
under the perimeter defence's rate threshold.  The probe-and-adjust
loop from Fig. 12:

1. start at a modest aggregate rate spread over many agents;
2. every adjustment interval, check two feedback signals an external
   attacker can actually observe:

   * **detection** — any of its agents stopped getting responses
     (banned by the firewall);
   * **effect** — its own requests' response time inflated relative to
     the baseline it measured before attacking (DVFS throttling is
     visible as victim-side slowdown);

3. if detected → multiplicative back-off of the per-agent rate (and
   optionally recruit fresh agents to hold the aggregate); if
   undetected but ineffective → additive increase; if undetected and
   effective → hold (converged).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .._validation import check_int, check_positive, require
from ..network.firewall import RateLimitFirewall
from ..network.sources import SourceRegistry
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_CONTROL
from .catalog import (
    ALL_TYPES,
    TEXT_CONT,
    RequestMix,
    TrafficClass,
    dope_mix,
    uniform_mix,
)
from .generator import ClosedLoopGenerator, Dispatch, clients_for_rate

__all__ = [
    "ATTACK_MODES",
    "AttackerState",
    "DopeAdjustment",
    "DopeStats",
    "DopeAttacker",
]


class AttackerState(enum.Enum):
    """Phase of the Fig. 12 loop."""

    PROBING = "probing"
    BACKING_OFF = "backing_off"
    CONVERGED = "converged"
    #: Predictor-poison mode only: the quiet low-draw phase that walks
    #: the victim's power-history percentile (and its decaying max
    #: floor) down before the synchronized flood.
    SHAPING = "shaping"


#: Attacker behaviour modes (``DopeAttacker(mode=...)``).
ATTACK_MODES: tuple = ("classic", "predictor-poison")

#: Ceiling on the evasion dilution: at least one request in
#: ``1/(1 - MAX_DILUTION)`` stays on the attack mix.
MAX_DILUTION = 0.8


@dataclass
class DopeAdjustment:
    """One decision of the adaptive loop (for the Fig. 12 bench)."""

    time_s: float
    rate_rps: float
    num_agents: int
    detected: bool
    effective: bool
    state: AttackerState
    #: True when the victim's *online detector* (not the firewall) had
    #: the attacker's sources quarantined at decision time.
    quarantined: bool = False
    #: Fraction of the attack mix diluted toward benign-looking traffic
    #: to evade behavioural scoring (0.0 = pure attack mix).
    dilution: float = 0.0


@dataclass
class DopeStats:
    """Loop history and summary."""

    adjustments: List[DopeAdjustment] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Whether the attacker reached a stable effective rate."""
        return bool(
            self.adjustments
            and self.adjustments[-1].state is AttackerState.CONVERGED
        )

    @property
    def final_rate(self) -> float:
        """Aggregate rate after the last adjustment."""
        return self.adjustments[-1].rate_rps if self.adjustments else 0.0


class DopeAttacker:
    """Adaptive low-rate / high-power attacker.

    Parameters
    ----------
    engine, dispatch, registry, rng:
        Simulation wiring.
    target_mix:
        What to request — defaults to the high-power victim types the
        offline profiling step would select.
    initial_rate_rps:
        Opening aggregate rate.
    rate_step_rps:
        Additive increase applied while undetected but ineffective.
    max_rate_rps:
        Upper bound of the probe (botnet capacity).
    num_agents:
        Recruited agents; per-agent rate is ``rate / agents``.
    adjust_interval_s:
        Seconds between Fig. 12 loop iterations.
    effect_signal:
        Zero-argument callable returning True when the attack is
        currently effective (e.g. attack-request latency inflated, or a
        power-oracle for region sweeps).  Defaults to never-effective,
        which makes the attacker ramp to ``max_rate_rps``.
    detection_signal:
        Zero-argument callable returning True when the attacker notices
        it is being filtered.  Defaults to checking the firewall ban
        list for its own agents when a firewall is supplied.
    backoff_factor:
        Multiplicative rate decrease on detection.
    rotate_on_detection:
        Botnet-master behaviour: when agents are banned, recruit a
        fresh pool of the same size instead of only backing off — the
        banned identities are burned, the attack continues from new
        ones.  Each rotation allocates a new source block from the
        registry.
    quarantine_signal:
        Zero-argument callable returning True when the attacker infers
        its sources are quarantined by an *online detector* (e.g. its
        requests land on the slow suspect pool — latency degradation it
        can measure externally).  Defaults to never-quarantined, which
        keeps the classic Fig. 12 loop byte-identical.
    dilution_step:
        Evasion knob: per-adjustment increase of the benign-mix dilution
        applied while quarantined.  Diluting toward the benign mix
        lowers the attacker's entropy/power anomaly at the cost of
        attack potency (a diluted request stream burns less power per
        request).  ``0.0`` (default) disables evasion.  The benign mix
        is the uniform all-types catalog mix (what a normal user
        population requests), and the dilution stops at
        :data:`MAX_DILUTION`.
    mode:
        ``"classic"`` (default) runs the Fig. 12 probe-and-adjust loop
        unchanged.  ``"predictor-poison"`` targets a history-driven
        victim (the ``prediction`` scheme): for ``poison_duration_s``
        after launch the attacker *shapes* — it presents only
        ``shaping_rate_rps`` of the lightest EC endpoint (text
        retrieval, so per-request power stays minimal), depressing
        the victim's power-history percentile and letting its decaying
        observed-max floor fade — and then fires a synchronized flood
        of the full attack mix at ``max_rate_rps`` into the inflated
        headroom the poisoned forecast granted.  After the flood fires
        the classic adaptive loop resumes.
    poison_duration_s:
        Length of the shaping phase (should exceed the victim
        predictor's history horizon to fully fade the max floor).
    shaping_rate_rps:
        Aggregate rate presented while shaping (low — the point is a
        quiet history, not damage).
    """

    def __init__(
        self,
        engine: EventEngine,
        dispatch: Dispatch,
        registry: SourceRegistry,
        rng: np.random.Generator,
        target_mix: Optional[RequestMix] = None,
        initial_rate_rps: float = 50.0,
        rate_step_rps: float = 50.0,
        max_rate_rps: float = 2000.0,
        num_agents: int = 50,
        adjust_interval_s: float = 20.0,
        effect_signal: Optional[Callable[[], bool]] = None,
        detection_signal: Optional[Callable[[], bool]] = None,
        firewall: Optional[RateLimitFirewall] = None,
        backoff_factor: float = 0.7,
        rotate_on_detection: bool = False,
        label: str = "dope",
        quarantine_signal: Optional[Callable[[], bool]] = None,
        dilution_step: float = 0.0,
        mode: str = "classic",
        poison_duration_s: float = 120.0,
        shaping_rate_rps: float = 20.0,
    ) -> None:
        check_positive("initial_rate_rps", initial_rate_rps)
        check_positive("rate_step_rps", rate_step_rps)
        check_positive("max_rate_rps", max_rate_rps)
        require(max_rate_rps >= initial_rate_rps, "max_rate must be >= initial_rate")
        check_int("num_agents", num_agents, minimum=1)
        check_positive("adjust_interval_s", adjust_interval_s)
        if not 0.0 < backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be in (0,1), got {backoff_factor}")
        if not 0.0 <= dilution_step <= 1.0:
            raise ValueError(
                f"dilution_step must be in [0,1], got {dilution_step}"
            )
        require(
            mode in ATTACK_MODES,
            f"mode must be one of {ATTACK_MODES}, got {mode!r}",
        )
        check_positive("poison_duration_s", poison_duration_s)
        check_positive("shaping_rate_rps", shaping_rate_rps)

        self.engine = engine
        self.rng = rng
        self.rate_rps = float(initial_rate_rps)
        self.rate_step_rps = float(rate_step_rps)
        self.max_rate_rps = float(max_rate_rps)
        self.adjust_interval_s = float(adjust_interval_s)
        self.backoff_factor = float(backoff_factor)
        self.firewall = firewall
        self.effect_signal = effect_signal or (lambda: False)
        self.detection_signal = detection_signal or self._firewall_detection
        self.rotate_on_detection = rotate_on_detection
        self.rotations = 0
        self._registry = registry
        self._label = label
        self.state = AttackerState.PROBING
        self.stats = DopeStats()

        self.quarantine_signal = quarantine_signal or (lambda: False)
        self.dilution_step = float(dilution_step)
        self.dilution = 0.0

        pool = registry.allocate(label, TrafficClass.ATTACK, num_agents)
        self.pool = pool
        mix = target_mix or dope_mix()
        self.target_mix = mix
        self.dilution_mix = uniform_mix(ALL_TYPES)
        self.mode = mode
        self.poison_duration_s = float(poison_duration_s)
        self.shaping_rate_rps = float(shaping_rate_rps)
        self.shaping_mix = uniform_mix((TEXT_CONT,))
        #: Simulated time at which a poison-mode flood fires; ``None``
        #: in classic mode and after the flood has been released.
        self._flood_at_s: Optional[float] = None
        self.think_s = 0.2
        if self.mode == "predictor-poison":
            # Open quietly: the shaping stream *is* the first phase.
            self.rate_rps = self.shaping_rate_rps
            mix = self.shaping_mix
        # The attack tools are closed-loop (fixed concurrency); the
        # attacker's "rate" knob maps onto the client-pool size.
        self.generator = ClosedLoopGenerator(
            engine=engine,
            dispatch=dispatch,
            rng=rng,
            source_pool=pool,
            mix=mix,
            num_clients=clients_for_rate(self.rate_rps, mix, self.think_s),
            think_s=self.think_s,
            label=label,
        )
        self._stop_loop: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Launch the flood and the adjustment loop."""
        if self.mode == "predictor-poison":
            self._flood_at_s = (
                self.engine.now + delay_s + self.poison_duration_s
            )
        self.generator.start(delay_s)
        self._stop_loop = self.engine.every(
            self.adjust_interval_s,
            self._adjust,
            priority=PRIORITY_CONTROL,
            start_delay_s=delay_s + self.adjust_interval_s,
        )

    def stop(self) -> None:
        """Cease fire."""
        self.generator.stop()
        if self._stop_loop is not None:
            self._stop_loop()
            self._stop_loop = None

    @property
    def per_agent_rate(self) -> float:
        """Rate each agent presents to the firewall."""
        return self.rate_rps / self.pool.size

    # ------------------------------------------------------------------
    # Fig. 12 loop
    # ------------------------------------------------------------------
    def _firewall_detection(self) -> bool:
        if self.firewall is None:
            return False
        banned = self.firewall.banned_sources()
        return any(self.pool.contains(s) for s in banned)

    def rotate_agents(self) -> None:
        """Recruit a fresh agent pool (burned identities abandoned)."""
        self.rotations += 1
        pool = self._registry.allocate(
            f"{self._label}-gen{self.rotations}",
            TrafficClass.ATTACK,
            self.pool.size,
        )
        self.pool = pool
        self.generator.source_pool = pool

    def _blended_mix(self) -> RequestMix:
        """Attack mix diluted toward the benign mix by ``self.dilution``."""
        if self.dilution <= 0.0:
            return self.target_mix
        weights: dict = {}
        for rtype, weight in zip(self.target_mix.types, self.target_mix.weights):
            weights[rtype] = weights.get(rtype, 0.0) + weight * (
                1.0 - self.dilution
            )
        for rtype, weight in zip(
            self.dilution_mix.types, self.dilution_mix.weights
        ):
            weights[rtype] = weights.get(rtype, 0.0) + weight * self.dilution
        return RequestMix(weights)

    def _record(self, detected: bool, effective: bool, quarantined: bool) -> None:
        """Append one loop decision to the Fig. 12 trace."""
        self.stats.adjustments.append(
            DopeAdjustment(
                time_s=self.engine.now,
                rate_rps=self.rate_rps,
                num_agents=self.pool.size,
                detected=detected,
                effective=effective,
                state=self.state,
                quarantined=quarantined,
                dilution=self.dilution,
            )
        )

    def _poison_phase_adjust(
        self, detected: bool, effective: bool, quarantined: bool
    ) -> bool:
        """Poison-mode phase machine; True while it owns the decision.

        Before the flood instant the attacker only *shapes* (holds the
        quiet low-draw stream — no probing, nothing for the victim's
        history to remember).  At the flood instant it swaps the
        generator onto the full attack mix at botnet capacity in one
        synchronized step, then hands control back to the classic
        loop for subsequent adjustments.
        """
        if self._flood_at_s is None:
            return False
        if self.engine.now < self._flood_at_s:
            self.state = AttackerState.SHAPING
            self._record(detected, effective, quarantined)
            return True
        # Fire: the poisoned forecast has inflated the victim's
        # effective budget — commit the whole botnet at once.
        self._flood_at_s = None
        self.rate_rps = self.max_rate_rps
        self.generator.mix = self.target_mix
        self.state = AttackerState.PROBING
        self.generator.set_clients(
            clients_for_rate(self.rate_rps, self.generator.mix, self.think_s)
        )
        self._record(detected, effective, quarantined)
        return True

    def _adjust(self) -> None:
        detected = bool(self.detection_signal())
        effective = bool(self.effect_signal())
        quarantined = bool(self.quarantine_signal())
        if self._poison_phase_adjust(detected, effective, quarantined):
            return
        if quarantined and self.dilution_step > 0.0:
            # Anti-detector evasion: blend benign-looking requests into
            # the stream so the behavioural scores (entropy, per-request
            # power) drift back toward the population baseline.  The
            # cost is potency — diluted requests burn less power.
            self.dilution = min(MAX_DILUTION, self.dilution + self.dilution_step)
            self.generator.mix = self._blended_mix()
        if detected:
            self.state = AttackerState.BACKING_OFF
            self.rate_rps = max(1.0, self.rate_rps * self.backoff_factor)
            if self.rotate_on_detection:
                self.rotate_agents()
        elif effective:
            self.state = AttackerState.CONVERGED
            # Hold: an effective, undetected rate is the DOPE sweet spot.
        else:
            self.state = AttackerState.PROBING
            self.rate_rps = min(self.max_rate_rps, self.rate_rps + self.rate_step_rps)
        self.generator.set_clients(
            clients_for_rate(self.rate_rps, self.generator.mix, self.think_s)
        )
        self._record(detected, effective, quarantined)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DopeAttacker(rate={self.rate_rps:.0f}rps over {self.pool.size} "
            f"agents, state={self.state.value})"
        )
