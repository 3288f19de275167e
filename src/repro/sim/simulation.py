"""DataCenterSimulation — the top-level facade.

Wires the whole stack together from a :class:`SimulationConfig` and a
:class:`~repro.power.manager.PowerManagementScheme`:

::

    traffic generators ──► NLB (firewall → filter → policy) ──► rack
                                                      ▲            │
                                scheme (per-slot step)┴── meter ────┘
                                                      battery

and exposes the convenience constructors the examples and benchmarks
use for the paper's three populations (AliOS normal users, flood tools,
the adaptive DOPE attacker).  Randomness is split from one master
``SeedSequence``, so runs are bit-reproducible per seed while every
component gets an independent stream.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .._validation import check_non_negative
from ..cluster.dvfs import FrequencyLadder
from ..cluster.power_model import ServerPowerModel
from ..cluster.rack import Rack
from ..cluster.topology import PowerTopology, TopologyMonitor
from ..metrics.availability import AvailabilityReport, availability
from ..metrics.collector import MetricsCollector
from ..metrics.energy import EnergyAccountant
from ..metrics.latency import LatencyStats
from ..network.fabric import FlowletEcmpFabric
from ..network.firewall import NullFirewall, RateLimitFirewall
from ..network.load_balancer import (
    NetworkLoadBalancer,
    RetryPolicy,
    RoundRobinPolicy,
)
from ..network.sources import SourceRegistry
from ..obs import Recorder, RunManifest, config_hash
from ..power.battery import Battery
from ..power.budget import PowerBudget
from ..power.manager import NullScheme, PowerManagementScheme
from ..power.meter import PowerMeter
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_CONTROL
from ..sim.fluid import BannedPoolDrain
from ..trace.alibaba import ClusterTrace
from ..workloads.catalog import RequestMix, TrafficClass
from ..workloads.dope import DopeAttacker
from ..workloads.generator import TrafficGenerator
from ..workloads.normal import make_normal_traffic
from ..workloads.attacks import make_flood
from .config import SimulationConfig

__all__ = ["DataCenterSimulation"]


class DataCenterSimulation:
    """One simulated power-constrained data center.

    Parameters
    ----------
    config:
        Infrastructure description (rack, budget, firewall, battery…).
    scheme:
        The Table 2 power-management scheme under test; ``None`` runs
        unmanaged (the vulnerability-characterisation arm).
    engine_mode:
        Execution strategy of the simulation's engine (``"scalar"``
        or ``"batched"``).  Deliberately not part of
        :class:`SimulationConfig`: a mode is a way of *evaluating* the
        model, not a different model, so it must not move config hashes
        or deterministic manifests.
    fluid:
        Opt the batched engine into hybrid fluid integration (see
        :mod:`repro.sim.fluid`).  Statistically faithful, not
        byte-identical — off by default.
    """

    def __init__(
        self,
        config: SimulationConfig = SimulationConfig(),
        scheme: Optional[PowerManagementScheme] = None,
        engine_mode: str = "scalar",
        fluid: bool = False,
    ) -> None:
        self.config = config
        self.engine = EventEngine(mode=engine_mode, fluid=fluid)
        self._seedseq = np.random.SeedSequence(config.seed)
        self.collector = MetricsCollector()
        self.registry = SourceRegistry()

        power_model = ServerPowerModel(
            nameplate_w=config.nameplate_w,
            idle_fraction=config.idle_fraction,
            alpha=config.alpha,
            num_workers=config.workers_per_server,
        )
        self.rack = Rack(
            engine=self.engine,
            num_servers=config.num_servers,
            rng=self.new_rng(),
            power_model=power_model,
            ladder=FrequencyLadder(),
            queue_capacity=config.queue_capacity,
            completion_sink=self.collector.sink,
            queue_timeout_s=config.queue_timeout_s,
        )
        # The power tree (None in the flat model).  Tree mode overlays
        # per-node budgets on the same flat server list; the enforced
        # top-level budget — what the meter and every scheme see — is
        # the DC feed's oversubscribed supply rather than the full rack
        # nameplate.
        spec = config.topology_spec
        self.topology: Optional[PowerTopology] = None
        self.topology_monitor: Optional[TopologyMonitor] = None
        self.fabric: Optional[FlowletEcmpFabric] = None
        if spec is not None:
            self.topology = PowerTopology(
                spec,
                server_nameplate_w=config.nameplate_w,
                budget_fraction=config.budget_level.fraction,
            )
            self.topology_monitor = TopologyMonitor(
                self.engine, self.rack, self.topology
            )
            self.budget = PowerBudget(
                self.topology.feed.budget_w, config.budget_level
            )
        else:
            self.budget = PowerBudget.for_level(
                config.budget_level, self.rack.nameplate_w
            )
        self.battery: Optional[Battery] = (
            Battery.for_rack(
                self.rack.nameplate_w,
                sustain_s=config.battery_sustain_s,
                efficiency=config.battery_efficiency,
            )
            if config.use_battery
            else None
        )

        self.scheme = scheme or NullScheme()
        self.scheme.bind(
            self.engine,
            self.rack,
            self.budget,
            self.battery,
            config.slot_s,
            self.topology,
        )

        if config.use_firewall:
            self.firewall: RateLimitFirewall = RateLimitFirewall(
                threshold_rps=config.firewall_threshold_rps,
                poll_interval_s=config.firewall_poll_s,
                ban_duration_s=config.firewall_ban_s,
            )
        else:
            self.firewall = NullFirewall()
        self.firewall.attach(self.engine)

        # Scheme-specific policies (Anti-DOPE's PDF) win; otherwise a
        # tree forwards through the ECMP/flowlet fabric and the flat
        # model keeps its single-NLB rotation.
        policy = self.scheme.forwarding_policy()
        if policy is None and spec is not None:
            self.fabric = FlowletEcmpFabric(
                num_racks=spec.num_racks,
                servers_per_rack=spec.servers_per_rack,
                num_spines=spec.num_spines,
                flowlet_gap_s=spec.flowlet_gap_s,
                salt=config.seed,
                obs=self.engine.obs,
            )
            policy = self.fabric
        if policy is None:
            policy = RoundRobinPolicy()
        clock = self.engine.clock
        self.nlb = NetworkLoadBalancer(
            servers=self.rack.servers,
            policy=policy,
            firewall=self.firewall,
            admission_filter=self.scheme.admission_filter(),
            drop_sink=self.collector.sink,
            now=lambda: clock._now,  # read per dispatch: skip the property
            obs=self.engine.obs,
            retry_policy=RetryPolicy(),
            scheduler=self.engine.schedule,
        )

        self.meter = PowerMeter(
            self.engine, self.rack, config.meter_interval_s, self.battery
        )
        self.generators: List[TrafficGenerator] = []
        self.attackers: List[DopeAttacker] = []
        self._started = False

    # ------------------------------------------------------------------
    # RNG management
    # ------------------------------------------------------------------
    def new_rng(self) -> np.random.Generator:
        """An independent child stream of the master seed."""
        return np.random.default_rng(self._seedseq.spawn(1)[0])

    # ------------------------------------------------------------------
    # Traffic population builders
    # ------------------------------------------------------------------
    def add_normal_traffic(
        self,
        rate_rps: float = 40.0,
        num_users: int = 200,
        mix: Optional[RequestMix] = None,
        trace: Optional[ClusterTrace] = None,
        trace_peak_rate_rps: Optional[float] = None,
        start_delay_s: float = 0.0,
        label: str = "alios",
    ) -> TrafficGenerator:
        """Attach the legitimate AliOS population and start it."""
        gen = make_normal_traffic(
            self.engine,
            self.nlb.dispatch,
            self.registry,
            self.new_rng(),
            rate_rps=rate_rps,
            num_users=num_users,
            mix=mix,
            trace=trace,
            trace_peak_rate_rps=trace_peak_rate_rps,
            label=label,
        )
        gen.start(start_delay_s)
        self._attach_fluid_drain(gen)
        self.generators.append(gen)
        return gen

    def add_flood(
        self,
        mix,
        rate_rps: float,
        num_agents: int = 20,
        start_s: float = 0.0,
        end_s: Optional[float] = None,
        label: str = "flood",
        closed_loop: bool = True,
        think_s: float = 0.2,
        poisson: bool = False,
    ) -> TrafficGenerator:
        """Attach a flood generator, optionally windowed to [start, end)."""
        gen = make_flood(
            self.engine,
            self.nlb.dispatch,
            self.registry,
            self.new_rng(),
            mix=mix,
            rate_rps=rate_rps,
            num_agents=num_agents,
            label=label,
            closed_loop=closed_loop,
            think_s=think_s,
            poisson=poisson,
        )
        if end_s is not None:
            gen.run_window(start_s, end_s)
        else:
            gen.start(start_s)
        self._attach_fluid_drain(gen)
        self.generators.append(gen)
        return gen

    def _attach_fluid_drain(self, gen) -> None:
        """Wire a fluid absorber onto *gen* when the engine opts in.

        Only open-loop :class:`TrafficGenerator` populations can be
        absorbed (closed-loop clients are self-limiting and never
        steady); the drain engages at run time only while the firewall
        provably rejects the generator's whole source pool.
        """
        if self.engine.fluid and isinstance(gen, TrafficGenerator):
            gen.fluid_drain = BannedPoolDrain(
                self.firewall, gen.source_pool, self.nlb, self.collector
            )

    def add_dope_attacker(
        self,
        start_delay_s: float = 0.0,
        label: str = "dope",
        **kwargs,
    ) -> DopeAttacker:
        """Attach the adaptive DOPE attacker (Fig. 12 loop)."""
        attacker = DopeAttacker(
            self.engine,
            self.nlb.dispatch,
            self.registry,
            self.new_rng(),
            firewall=self.firewall,
            label=label,
            **kwargs,
        )
        attacker.start(start_delay_s)
        self.attackers.append(attacker)
        return attacker

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def ensure_started(self) -> None:
        """Arm the meter and the control loop (idempotent).

        Called automatically by :meth:`run`; call it directly to inspect
        the armed scheme before any simulated time passes.
        """
        if not self._started:
            self.meter.start()
            if self.topology_monitor is not None:
                self.topology_monitor.start(self.config.meter_interval_s)
            self.engine.every(
                self.config.slot_s,
                self.scheme.slot_tick,
                priority=PRIORITY_CONTROL,
            )
            self._started = True

    def run(self, duration_s: float) -> None:
        """Advance the simulation by *duration_s* seconds.

        The first call starts the meter and the scheme's control loop;
        subsequent calls continue from where the previous one stopped,
        so multi-phase experiments (baseline window → attack window)
        are plain sequential calls.

        Raises :class:`ValueError` before arming anything when
        *duration_s* is negative or not finite.
        """
        check_non_negative("duration_s", duration_s)
        self.ensure_started()
        self.engine.run(until=self.engine.now + duration_s)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.engine.now

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def obs(self) -> Recorder:
        """The observation context every component records into."""
        return self.engine.obs

    def run_manifest(self, name: str = "run") -> RunManifest:
        """Structured record of this run so far.

        The manifest's deterministic part (config hash, seed, version,
        counters) is identical across same-seed runs; wall timings ride
        along outside the deterministic hash.
        """
        return RunManifest(
            name=name,
            seed=self.config.seed,
            config_hash=config_hash(self.config.to_dict()),
            counters=self.obs.counters.as_dict(),
            timings_s=self.obs.timers.as_dict(),
        )

    def topology_report(self) -> Optional[dict]:
        """Per-node power/violation summary, or ``None`` in flat mode."""
        if self.topology_monitor is None:
            return None
        return self.topology_monitor.report()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def latency_stats(
        self,
        traffic_class: Optional[TrafficClass] = TrafficClass.NORMAL,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
        type_name: Optional[str] = None,
    ) -> LatencyStats:
        """Latency summary of one population over one window."""
        times = self.collector.response_times(
            traffic_class=traffic_class,
            type_name=type_name,
            start_s=start_s,
            end_s=end_s,
        )
        return LatencyStats.from_times(times)

    def availability_report(
        self,
        sla_s: float = 1.0,
        traffic_class: Optional[TrafficClass] = TrafficClass.NORMAL,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> AvailabilityReport:
        """Availability of one population over one window."""
        records = self.collector.filtered(
            traffic_class=traffic_class, start_s=start_s, end_s=end_s
        )
        return availability(records, sla_s=sla_s)

    def start_energy_accounting(self) -> EnergyAccountant:
        """Begin an energy-measurement window at the current time."""
        return EnergyAccountant(self.rack, self.battery)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataCenterSimulation(t={self.engine.now:.0f}s, "
            f"scheme={self.scheme.name}, budget={self.budget.supply_w:.0f}W)"
        )
