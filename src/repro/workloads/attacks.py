"""Flood-attack traffic models (http-load / ApacheBench and friends).

Two layers of abstraction:

* :func:`make_flood` — a single flood generator: a request type (or
  mix), an aggregate rate, and an agent count, paced like the paper's
  tools (http-load's constant concurrency ≈ constant rate with small
  jitter; ApacheBench's fixed concurrent-request count likewise).
* :data:`ATTACK_SCENARIOS` — the Section 3.1 attack taxonomy used by
  the Fig. 3 power-profile characterisation, mapping each named
  cyber-attack to the request mix and rate envelope it presents to the
  victim.  Application-layer attacks resolve to high-power catalog
  types; network/transport-layer floods resolve to the near-zero-power
  volume type at much higher packet rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .._validation import check_int, check_positive
from ..network.sources import SourceRegistry
from ..sim.engine import EventEngine
from ..trace.arrival import ArrivalProcess, ConstantRateProcess, PoissonProcess
from .catalog import (
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
    RequestMix,
    TrafficClass,
    uniform_mix,
)
from .generator import (
    ClosedLoopGenerator,
    Dispatch,
    TrafficGenerator,
    clients_for_rate,
)

__all__ = [
    "make_flood",
    "AttackScenario",
]


def make_flood(
    engine: EventEngine,
    dispatch: Dispatch,
    registry: SourceRegistry,
    rng: np.random.Generator,
    mix,
    rate_rps: float,
    num_agents: int = 1,
    label: str = "flood",
    closed_loop: bool = True,
    think_s: float = 0.2,
    poisson: bool = False,
    jitter: float = 0.05,
) -> TrafficGenerator:
    """Build one flood generator.

    Parameters
    ----------
    mix:
        A :class:`RequestType` or :class:`RequestMix` the flood requests.
    rate_rps:
        Target aggregate request rate across all agents (the rate the
        tool would achieve against an unthrottled victim).
    num_agents:
        Recruited agents the rate is spread over (per-agent rate =
        ``rate_rps / num_agents`` — the firewall-evasion knob).
    closed_loop:
        Model the tool as fixed-concurrency (ApacheBench's ``-c``,
        http-load's ``-parallel``): offered load self-limits when the
        victim slows.  ``False`` gives an open-loop packet blaster that
        holds *rate_rps* regardless of victim state (network-layer
        floods).
    think_s:
        Closed-loop client think time.
    poisson:
        Open loop only: Poisson pacing instead of near-constant pacing.
    jitter:
        Open loop only: relative jitter of constant pacing.
    """
    check_positive("rate_rps", rate_rps)
    check_int("num_agents", num_agents, minimum=1)
    pool = registry.allocate(label, TrafficClass.ATTACK, num_agents)
    if closed_loop:
        return ClosedLoopGenerator(
            engine=engine,
            dispatch=dispatch,
            rng=rng,
            source_pool=pool,
            mix=mix,
            num_clients=clients_for_rate(rate_rps, mix, think_s),
            think_s=think_s,
            label=label,
        )
    process: ArrivalProcess = (
        PoissonProcess(rate_rps)
        if poisson
        else ConstantRateProcess(rate_rps, jitter=jitter)
    )
    return TrafficGenerator(
        engine=engine,
        dispatch=dispatch,
        rng=rng,
        source_pool=pool,
        mix=mix,
        process=process,
        label=label,
    )


@dataclass(frozen=True)
class AttackScenario:
    """One named cyber-attack from the Section 3.1 characterisation.

    ``power_class`` is the paper's qualitative grouping in Fig. 3:
    ``high`` (red lines), ``medium`` (black) or ``low`` (blue).
    """

    name: str
    layer: str
    mix: RequestMix
    default_rate_rps: float
    power_class: str
    description: str

    def build(
        self,
        engine: EventEngine,
        dispatch: Dispatch,
        registry: SourceRegistry,
        rng: np.random.Generator,
        rate_rps: Optional[float] = None,
        num_agents: int = 20,
    ) -> TrafficGenerator:
        """Instantiate the scenario as a flood generator.

        Application/presentation-layer attacks use the closed-loop tool
        model; network/transport volume floods blast packets open-loop
        (a SYN flood does not wait for responses).
        """
        return make_flood(
            engine,
            dispatch,
            registry,
            rng,
            mix=self.mix,
            rate_rps=rate_rps if rate_rps is not None else self.default_rate_rps,
            num_agents=num_agents,
            label=self.name,
            closed_loop=self.layer in ("application", "presentation"),
        )


def _scenarios() -> Dict[str, AttackScenario]:
    volume = RequestMix({VOLUME_DOS: 1.0})
    return {
        s.name: s
        for s in (
            AttackScenario(
                name="http-flood",
                layer="application",
                mix=uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT, TEXT_CONT)),
                default_rate_rps=400.0,
                power_class="high",
                description="HTTP GET flood against the EC endpoints "
                "(http-load / ApacheBench).",
            ),
            AttackScenario(
                name="dns-flood",
                layer="application",
                mix=RequestMix({WORD_COUNT: 0.5, TEXT_CONT: 0.5}),
                default_rate_rps=600.0,
                power_class="high",
                description="DNS query flood: lookups fan out to "
                "disk/text-serving work on the resolvers.",
            ),
            AttackScenario(
                name="ssl-renegotiation",
                layer="presentation",
                mix=RequestMix({COLLA_FILT: 0.3, TEXT_CONT: 0.7}),
                default_rate_rps=250.0,
                power_class="medium",
                description="Repeated TLS handshakes burn CPU on "
                "asymmetric crypto at moderate rates.",
            ),
            AttackScenario(
                name="syn-flood",
                layer="transport",
                mix=volume,
                default_rate_rps=5000.0,
                power_class="low",
                description="TCP SYN flood: connection-table exhaustion, "
                "negligible per-packet compute.",
            ),
            AttackScenario(
                name="udp-flood",
                layer="network",
                mix=volume,
                default_rate_rps=8000.0,
                power_class="low",
                description="UDP volume flood saturating link bandwidth.",
            ),
            AttackScenario(
                name="icmp-flood",
                layer="network",
                mix=volume,
                default_rate_rps=6000.0,
                power_class="low",
                description="ICMP echo flood (smurf-style).",
            ),
            AttackScenario(
                name="slowloris",
                layer="application",
                mix=RequestMix({TEXT_CONT: 1.0}),
                default_rate_rps=30.0,
                power_class="low",
                description="Slow, connection-holding requests; starves "
                "sockets, not watts.",
            ),
        )
    }


#: The Fig. 3 attack taxonomy, keyed by scenario name.
ATTACK_SCENARIOS: Dict[str, AttackScenario] = _scenarios()

#: Scenario names grouped by the paper's Fig. 3 colour classes.
POWER_CLASSES: Dict[str, Tuple[str, ...]] = {
    "high": tuple(s.name for s in ATTACK_SCENARIOS.values() if s.power_class == "high"),
    "medium": tuple(
        s.name for s in ATTACK_SCENARIOS.values() if s.power_class == "medium"
    ),
    "low": tuple(s.name for s in ATTACK_SCENARIOS.values() if s.power_class == "low"),
}
