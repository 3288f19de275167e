"""Shared scenario runners for the figure/table benchmarks.

Every benchmark regenerates one of the paper's tables or figures: it
runs the corresponding simulation(s), prints the same rows/series the
paper reports (via :func:`repro.analysis.print_table`), and asserts the
qualitative shape so a regression in the model breaks the bench.  The
heavy lifting shared by several figures lives here.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    CappingScheme,
    DataCenterSimulation,
    NullScheme,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis import DopeRegionAnalyzer
from repro.runner import ResultCache
from repro.sim.engine import engine_from_env, resolve_engine_selection
from repro.workloads import (
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    VOLUME_DOS,
    WORD_COUNT,
    RequestMix,
    RequestType,
    TrafficClass,
    dope_mix,
)

# ----------------------------------------------------------------------
# The evaluation scenario
# ----------------------------------------------------------------------

#: Master seed of the evaluation scenario.
SEED = 7

#: Attack onset within the evaluation window.
ATTACK_START = 30.0

#: Start of the steady-state measurement window.
MEASURE_FROM = 60.0

#: Full evaluation-scenario duration.
DURATION = 240.0

# Attack sized at roughly the rack's nominal-frequency service capacity:
# strong enough that power-fitting DVFS pushes the cluster into overload
# (the paper's degradation regime) while Normal-PB stays serviceable.
ATTACK_RATE = 220.0

#: Legitimate background load of the evaluation scenario.
NORMAL_RATE = 40.0

#: The DOPE flood's request mix (high-power catalog types).
ATTACK_MIX: RequestMix = dope_mix()

#: The Fig 11 region-grid axes.
REGION_TYPES: Tuple[RequestType, ...] = (
    COLLA_FILT,
    K_MEANS,
    WORD_COUNT,
    TEXT_CONT,
    VOLUME_DOS,
)
REGION_RATES: Tuple[float, ...] = (50.0, 150.0, 300.0, 600.0)

#: The Table 2 scheme matrix.
SCHEMES = {
    "capping": CappingScheme,
    "shaving": ShavingScheme,
    "token": TokenScheme,
    "anti-dope": AntiDopeScheme,
}

#: Budget scenarios in the paper's order.
BUDGETS = (
    BudgetLevel.NORMAL,
    BudgetLevel.HIGH,
    BudgetLevel.MEDIUM,
    BudgetLevel.LOW,
)


def bench_workers(default: int = 1) -> int:
    """Worker processes for runner-backed benches.

    Serial by default so every bench stays byte-reproducible without
    configuration; export ``REPRO_BENCH_WORKERS=N`` to fan sweep cells
    out across N processes (the merged output is identical either way).
    """
    return int(os.environ.get("REPRO_BENCH_WORKERS", default))


def bench_cache() -> Optional[ResultCache]:
    """Optional on-disk result cache for runner-backed benches.

    Export ``REPRO_BENCH_CACHE=/path`` to make repeat bench runs reuse
    stored sweep cells (e.g. when iterating on assertions).
    """
    root = os.environ.get("REPRO_BENCH_CACHE")
    return ResultCache(root) if root else None


def fig11_analyzer(seed: int = 5) -> DopeRegionAnalyzer:
    """The Fig 11 analyzer configuration (Medium-PB, 20 agents)."""
    return DopeRegionAnalyzer(
        config=SimulationConfig(budget_level=BudgetLevel.MEDIUM, seed=seed),
        window_s=50.0,
        num_agents=20,
        background_rate_rps=20.0,
    )


def run_attack_scenario(
    scheme_factory=NullScheme,
    budget: BudgetLevel = BudgetLevel.LOW,
    attack: bool = True,
    attack_rate: float = ATTACK_RATE,
    attack_mix=None,
    normal_rate: float = NORMAL_RATE,
    duration: float = DURATION,
    seed: int = SEED,
    config: Optional[SimulationConfig] = None,
    engine: Optional[str] = None,
) -> DataCenterSimulation:
    """The evaluation scenario: trace-like normal load + DOPE flood.

    *engine* picks the execution engine (``scalar``/``batched``/
    ``fluid``); the default follows ``REPRO_BENCH_ENGINE``.  The figure
    benches assert on model outputs, which the golden-equivalence
    contract keeps byte-identical between scalar and batched, so the
    selection changes wall-clock only.  (These closed-loop floods never
    satisfy the fluid steadiness proof, so even ``fluid`` stays exact
    here; every run asserts that no fluid segment was integrated.)
    """
    cfg = config or SimulationConfig(budget_level=budget, seed=seed)
    engine_mode, engine_fluid = resolve_engine_selection(
        engine if engine is not None else engine_from_env(default="fluid")
    )
    sim = DataCenterSimulation(
        cfg,
        scheme=scheme_factory(),
        engine_mode=engine_mode,
        fluid=engine_fluid,
    )
    sim.add_normal_traffic(rate_rps=normal_rate)
    if attack:
        sim.add_flood(
            mix=attack_mix if attack_mix is not None else ATTACK_MIX,
            rate_rps=attack_rate,
            num_agents=20,
            start_s=ATTACK_START,
        )
    sim.run(duration)
    assert sim.obs.counters.get("engine.fluid_segments") == 0
    return sim


def normal_latency(sim: DataCenterSimulation, start: float = MEASURE_FROM):
    """Latency of the legitimate population in the measurement window."""
    return sim.latency_stats(
        traffic_class=TrafficClass.NORMAL, start_s=start, end_s=DURATION
    )


_MATRIX_CACHE: Dict[tuple, Dict] = {}


def scheme_budget_matrix(
    duration: float = DURATION, seed: int = SEED
) -> Dict[str, Dict[BudgetLevel, DataCenterSimulation]]:
    """Run every (scheme × budget) cell of Figs 16/17/19.

    Memoized: the three figures drawn from the same evaluation matrix
    (mean RT, tail latency, energy) share one set of simulations.
    """
    key = (duration, seed)
    if key in _MATRIX_CACHE:
        return _MATRIX_CACHE[key]
    matrix: Dict[str, Dict[BudgetLevel, DataCenterSimulation]] = {}
    for name, factory in SCHEMES.items():
        matrix[name] = {}
        for budget in BUDGETS:
            matrix[name][budget] = run_attack_scenario(
                factory, budget, duration=duration, seed=seed
            )
    _MATRIX_CACHE[key] = matrix
    return matrix
