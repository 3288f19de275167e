"""The four benchmark workloads, built through the simulator's public API.

Each entry of :data:`WORKLOADS` maps ``(seed, scale)`` to a ready run:
calling it is the workload's set-up (the simulation or analyzer and its
traffic), ``run(tracer)`` executes it and returns the simulated seconds,
and ``facts()`` returns the digest inputs and the run's statistics.
*scale* shortens the simulated time (tests use 1/20); the benchmark
itself always runs at scale 1.

The scenario constants are pinned here rather than imported from
``repro.bench``, so a refactor of the legacy bench cannot silently
change what this benchmark measures.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    SimulationConfig,
)
from repro.analysis import DopeRegionAnalyzer
from repro.obs.contract import is_execution_counter
from repro.workloads import (
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
    uniform_mix,
)
from repro.workloads.catalog import TrafficClass

from .tracer import Tracer

__all__ = ["WORKLOADS", "volume_flood_sim", "sim_facts"]

#: Legitimate AliOS background load of every single-simulation workload.
NORMAL_RATE_RPS = 40.0
#: The DOPE flood: the high-power catalog types at the rack's capacity.
ATTACK_MIX = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))
ATTACK_RATE_RPS = 220.0
ATTACK_AGENTS = 20
#: Network-layer volume flood: 1200 rps per agent trips the firewall at
#: its first poll, leaving the rest of the run to the fluid drain.
VOLUME_RATE_RPS = 12000.0
VOLUME_AGENTS = 10
VOLUME_POLL_S = 1.0
#: Fig-11 grid of the region sweep.
REGION_TYPES = (COLLA_FILT, K_MEANS, WORD_COUNT, TEXT_CONT, VOLUME_DOS)
REGION_RATES_RPS = (50.0, 150.0, 300.0, 600.0)
REGION_WINDOW_S = 30.0


def _deterministic(counters: Dict[str, float]) -> Dict[str, float]:
    """Counters of model events; execution-work counters are dropped."""
    return {k: v for k, v in counters.items() if not is_execution_counter(k)}


def sim_facts(sim: DataCenterSimulation) -> Dict[str, object]:
    """What one simulation produced: the inputs of its output digest."""
    collector = sim.collector
    outcomes = {}
    for traffic_class in TrafficClass:
        counts = collector.outcome_counts(traffic_class=traffic_class)
        outcomes[traffic_class.value] = {o.value: n for o, n in counts.items() if n}
    latency = sim.latency_stats()
    return {
        "outcomes": outcomes,
        "normal_p50_s": latency.p50,
        "normal_p99_s": latency.p99,
        "meter_peak_w": sim.meter.peak_power(),
        "meter_mean_w": sim.meter.mean_power(),
        "counters": _deterministic(sim.obs.counters.as_dict()),
    }


def sim_stats(sim: DataCenterSimulation) -> Dict[str, object]:
    """Cheap per-simulation statistics: conservation and layer ratios."""
    servers = sim.rack.servers
    generated = sum(gen.generated for gen in sim.generators)
    accounted = sim.collector.total() + sum(s.in_system for s in servers)
    return {
        "conservation": [[generated, accounted]],
        "counters": sim.obs.counters.as_dict(),
        "nlb_forwarded": sim.nlb.forwarded,
        "nlb_dropped": sim.nlb.dropped,
        "firewall_admitted": sim.firewall.stats.admitted,
        "firewall_rejected": sim.firewall.stats.rejected,
        "server_rejected": sum(s.rejected for s in servers),
        "records": len(sim.collector),
    }


def _sum_stats(parts: List[Dict[str, object]]) -> Dict[str, object]:
    total: Dict[str, object] = {"conservation": [], "counters": {}}
    for part in parts:
        for key, value in part.items():
            if key == "conservation":
                total[key].extend(value)
            elif key == "counters":
                counters = total[key]
                for name, n in value.items():
                    counters[name] = counters.get(name, 0) + n
            else:
                total[key] = total.get(key, 0) + value
    return total


class SimulationRun:
    """One long simulation, run once for *duration_s* simulated seconds."""

    def __init__(self, sim: DataCenterSimulation, duration_s: float) -> None:
        self.sim = sim
        self.duration_s = duration_s

    def run(self, tracer: Tracer) -> float:
        self.sim.run(self.duration_s)
        return self.duration_s

    def facts(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        stats = sim_stats(self.sim)
        stats["runner_overhead_s"] = 0.0
        return sim_facts(self.sim), stats


class RegionSweepRun:
    """A serial, uncached Fig-11 sweep: one short simulation per cell."""

    def __init__(self, analyzer: DopeRegionAnalyzer) -> None:
        self.analyzer = analyzer
        self.cells: List[Dict[str, object]] = []
        self.result = None
        self.recorder = None

    def run(self, tracer: Tracer) -> float:
        # The cells' simulations live inside the sweep, so their
        # statistics are taken as each cell's run returns; that work is
        # the benchmark's, excluded from the measured time.
        original = DataCenterSimulation.__dict__["run"]
        cells = self.cells

        def run_and_record(sim: DataCenterSimulation, duration_s: float) -> None:
            original(sim, duration_s)
            with tracer.excluded():
                cells.append(sim_stats(sim))

        self.recorder = tracer.recorder()
        DataCenterSimulation.run = run_and_record
        try:
            self.result = self.analyzer.sweep(
                REGION_TYPES, REGION_RATES_RPS, workers=1, recorder=self.recorder
            )
        finally:
            DataCenterSimulation.run = original
        return len(self.result.cells) * self.analyzer.window_s

    def facts(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        stats = _sum_stats(self.cells)
        timers = self.recorder.timers
        stats["runner_overhead_s"] = timers.total_s("runner.run_cells") - timers.total_s(
            "runner.cell"
        )
        digest_inputs = {
            "grid": [list(row) for row in self.result.as_rows()],
            "counters": _deterministic(stats["counters"]),
        }
        return digest_inputs, stats


def table2_antidope(seed: int, scale: float) -> SimulationRun:
    """The paper's evaluation scenario under Anti-DOPE, scalar engine."""
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed),
        scheme=AntiDopeScheme(),
    )
    sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
    sim.add_flood(
        mix=ATTACK_MIX,
        rate_rps=ATTACK_RATE_RPS,
        num_agents=ATTACK_AGENTS,
        start_s=30.0,
    )
    return SimulationRun(sim, 1200.0 * scale)


def volume_flood_sim(seed: int, fluid: bool) -> DataCenterSimulation:
    """The volume flood on the batched engine, fluid or exact."""
    sim = DataCenterSimulation(
        SimulationConfig(
            budget_level=BudgetLevel.LOW, seed=seed, firewall_poll_s=VOLUME_POLL_S
        ),
        engine_mode="batched",
        fluid=fluid,
    )
    sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
    sim.add_flood(
        mix=VOLUME_DOS,
        rate_rps=VOLUME_RATE_RPS,
        num_agents=VOLUME_AGENTS,
        closed_loop=False,
        poisson=True,
        label="volume-dos",
    )
    return sim


def volume_flood(seed: int, scale: float) -> SimulationRun:
    """Open-loop volume DoS against the firewall, fluid engine."""
    return SimulationRun(volume_flood_sim(seed, fluid=True), 1500.0 * scale)


def tree_dc_capping(seed: int, scale: float) -> SimulationRun:
    """Capping on the 16-server ``tree-dc`` power tree, batched engine."""
    sim = DataCenterSimulation(
        SimulationConfig.for_topology("tree-dc", budget_level=BudgetLevel.LOW, seed=seed),
        scheme=CappingScheme(),
        engine_mode="batched",
    )
    sim.add_normal_traffic(rate_rps=NORMAL_RATE_RPS)
    sim.add_flood(
        mix=ATTACK_MIX,
        rate_rps=ATTACK_RATE_RPS,
        num_agents=ATTACK_AGENTS,
        start_s=5.0,
        closed_loop=False,
    )
    return SimulationRun(sim, 750.0 * scale)


def region_sweep_detect(seed: int, scale: float) -> RegionSweepRun:
    """The Fig-11 grid under ``online-detect``, MEDIUM budget."""
    return RegionSweepRun(
        DopeRegionAnalyzer(
            config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=seed),
            window_s=REGION_WINDOW_S * scale,
            scheme="online-detect",
        )
    )


WORKLOADS: Dict[str, Callable[[int, float], object]] = {
    "table2-antidope": table2_antidope,
    "volume-flood": volume_flood,
    "tree-dc-capping": tree_dc_capping,
    "region-sweep-detect": region_sweep_detect,
}
