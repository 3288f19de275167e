"""Chaos sweep: the Table-2 scheme matrix under attack *and* faults.

The paper evaluates Capping/Shaving/Token/Anti-DOPE against a traffic
flood with the infrastructure behaving perfectly.  The chaos sweep asks
the harsher question the fault layer exists for: how do those schemes —
plus the ``online-detect`` streaming detector — degrade when the flood
coincides with a server crash, a noisy or silent power meter, and a
battery that stops cooperating?

One :func:`chaos_cell` is one (scheme, scenario) run: it scripts a
deterministic :class:`~repro.faults.plan.FaultPlan` from the cell
parameters, arms a :class:`~repro.faults.injector.FaultInjector`, runs
the simulation and returns a flat JSON-ready dict with availability,
latency, peak power and — the fault layer's headline — the **drop
attribution** splitting losses the scheme chose (policy) from losses
the infrastructure inflicted (fault).

:func:`run_chaos` fans the scheme matrix through
:func:`repro.runner.run_cells`, so chaos sweeps inherit process-parallel
fan-out with byte-identical output for any worker count, plus on-disk
result caching.  The payload follows the hand-validated
``repro-chaos/1`` schema (:func:`validate_chaos_payload`).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .._validation import check_int, check_positive
from .._version import __version__
from ..detect import make_scheme, validate_scheme_names
from ..metrics.latency import LatencyStats
from ..obs import Recorder, config_hash, jsonable
from ..power import BudgetLevel
from ..runner import CellSpec, ResultCache, run_cells
from ..sim import DataCenterSimulation, SimulationConfig
from ..workloads import COLLA_FILT, K_MEANS, WORD_COUNT, TrafficClass, uniform_mix
from .injector import FaultInjector
from .plan import FaultPlan

__all__ = [
    "CHAOS_SCHEMA_ID",
    "CHAOS_SCHEMES",
    "chaos_cell",
    "run_chaos",
    "validate_chaos_payload",
]

#: Identifier stamped into every chaos document this version emits.
CHAOS_SCHEMA_ID = "repro-chaos/1"

#: The scheme matrix the sweep compares: Table 2 plus the online
#: detector and the history-driven predictor.  New schemes append at
#: the END — downstream consumers index cells positionally and the
#: capping control arm must remain first.
CHAOS_SCHEMES: Tuple[str, ...] = (
    "capping",
    "shaving",
    "token",
    "anti-dope",
    "online-detect",
    "prediction",
)

#: Attack onset within every chaos cell.
_ATTACK_START_S = 20.0

#: Staleness bound handed to the schemes' sensor fallback.
_STALENESS_BOUND_S = 5.0


def _scenario_plan(
    seed: int,
    duration_s: float,
    num_servers: int,
    profile: str,
    topology: str = "flat",
) -> FaultPlan:
    """The scripted fault schedule of one cell.

    ``"none"`` keeps the faultable sensor attached but injects nothing
    (the control arm); ``"combined"`` is the smoke scenario the ISSUE
    gates on — DOPE flood + one server crash + meter noise + a meter
    dropout long enough to cross the staleness bound; ``"severe"`` adds
    a PDU trip and battery degradation on top.  Under a power tree the
    severe trip targets ``row0`` — a row-level cascade that takes down
    that row's racks while the rest of the facility keeps serving —
    instead of the flat model's whole-fleet blackout.
    """
    plan = FaultPlan(seed=seed)
    if profile == "none":
        return plan
    crash_at_s = _ATTACK_START_S + 0.3 * (duration_s - _ATTACK_START_S)
    outage_s = max(5.0, 0.15 * duration_s)
    plan.meter_noise(_ATTACK_START_S + 5.0, sigma_w=8.0, bias_w=0.0)
    plan.server_crash(crash_at_s, seed % num_servers, outage_s)
    plan.meter_dropout(
        _ATTACK_START_S + 0.6 * (duration_s - _ATTACK_START_S),
        duration_s=3.0 * _STALENESS_BOUND_S,
    )
    if profile == "severe":
        plan.battery_fade(crash_at_s, fraction=0.5)
        plan.battery_stuck(
            crash_at_s + outage_s, duration_s=max(5.0, 0.1 * duration_s)
        )
        plan.pdu_trip(
            _ATTACK_START_S + 0.8 * (duration_s - _ATTACK_START_S),
            duration_s=max(4.0, 0.05 * duration_s),
            node="" if topology == "flat" else "row0",
        )
    return plan


def chaos_cell(
    scheme: str,
    seed: int,
    budget: str = "LOW",
    num_servers: int = 4,
    duration_s: float = 90.0,
    attack_rate_rps: float = 220.0,
    normal_rate_rps: float = 40.0,
    profile: str = "combined",
    topology: str = "flat",
) -> Dict[str, object]:
    """Run one scheme under the DOPE flood + fault scenario.

    Module-level and driven entirely by JSON-representable keyword
    arguments, so it is picklable for the process pool and cacheable by
    the runner.  Everything in the returned dict is deterministic per
    arguments — no wall-clock values — which is what makes chaos
    payloads byte-identical across worker counts.

    A tree *topology* sizes the fleet from the preset (ignoring
    *num_servers*), forwards through the ECMP/flowlet fabric and adds
    the per-node ``topology_report`` to the cell.
    """
    config = SimulationConfig.for_topology(
        topology,
        budget_level=BudgetLevel[budget],
        seed=seed,
        **({"num_servers": num_servers} if topology == "flat" else {}),
    )
    num_servers = config.num_servers
    scheme_obj = make_scheme(scheme, config)
    sim = DataCenterSimulation(config, scheme=scheme_obj)
    plan = _scenario_plan(seed, duration_s, num_servers, profile, topology)
    injector = FaultInjector(
        sim, plan, staleness_bound_s=_STALENESS_BOUND_S
    )
    injector.arm()
    sim.add_normal_traffic(rate_rps=normal_rate_rps)
    sim.add_flood(
        mix=uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT)),
        rate_rps=attack_rate_rps,
        num_agents=20,
        start_s=_ATTACK_START_S,
    )
    sim.run(duration_s)

    avail = sim.availability_report(
        sla_s=0.5,
        traffic_class=TrafficClass.NORMAL,
        start_s=_ATTACK_START_S,
    )
    stats: LatencyStats = sim.latency_stats(
        traffic_class=TrafficClass.NORMAL, start_s=_ATTACK_START_S
    )
    attribution = sim.collector.drop_attribution(
        traffic_class=TrafficClass.NORMAL, start_s=_ATTACK_START_S
    )
    # All-classes attribution: fault losses often hit the (dominant)
    # attack population, which the NORMAL-only split cannot see.
    attribution_all = sim.collector.drop_attribution()
    counters = sim.obs.counters
    cell: Dict[str, object] = (
        {}
        if sim.topology_monitor is None
        else {"topology_report": sim.topology_monitor.report()}
    )
    if hasattr(scheme_obj, "report"):
        # Online-detection cells carry the detector's verdict state so
        # the chaos document shows graceful degradation under meter
        # faults (calibration clamps, quarantine churn) per profile.
        cell["detector"] = jsonable(scheme_obj.report())
    return jsonable(
        {
            **cell,
            "scheme": scheme,
            "seed": seed,
            "profile": profile,
            "topology": topology,
            "fault_plan_signature": plan.signature(),
            "faults_injected": dict(sorted(injector.injected.items())),
            "offered": avail.offered,
            "served_within_sla": avail.served_within_sla,
            "served_late": avail.served_late,
            "dropped": avail.dropped,
            "dropped_fault": attribution["dropped_fault"],
            "dropped_policy": attribution["dropped_policy"],
            "drops_all_classes": attribution_all,
            "availability": avail.availability,
            "mean_latency_s": stats.mean,
            "p90_latency_s": stats.p90,
            "peak_power_w": sim.meter.peak_power(),
            "budget_w": sim.budget.supply_w,
            "violation_slots": counters.get("power.budget_violation_slots"),
            "server_failures": counters.get("cluster.server_failures"),
            "requests_rerouted": sim.nlb.rerouted,
            "nlb_retries": counters.get("network.nlb_retries"),
            "sensor_stale_fallbacks": counters.get(
                "power.sensor_stale_fallbacks"
            ),
            "sensor_worst_case_fallbacks": counters.get(
                "power.sensor_worst_case_fallbacks"
            ),
        }
    )


def run_chaos(
    mode: str = "smoke",
    seed: int = 0,
    budget: str = "low",
    num_servers: int = 4,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    recorder: Optional[Recorder] = None,
    name: Optional[str] = None,
    topology: str = "flat",
    schemes: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Run the chaos scheme matrix; return a ``repro-chaos/1`` payload.

    ``"smoke"`` runs the scheme matrix through the combined scenario for
    90 simulated seconds each; ``"full"`` runs both the combined and the
    severe profile for 240 s.  Cells fan out over *workers* processes
    through :func:`repro.runner.run_cells`; the payload is byte-identical
    for any worker count (it contains no wall-clock values).  A tree
    *topology* runs every cell against that power tree (fleet sized from
    the preset).  *schemes* restricts the matrix to a subset (order
    preserved); unknown names raise with the full menu.
    """
    if mode not in ("smoke", "full"):
        raise ValueError(f"mode must be 'smoke' or 'full', got {mode!r}")
    check_int("seed", seed, minimum=0)
    check_int("num_servers", num_servers, minimum=2)
    check_int("workers", workers, minimum=1)
    selected: Tuple[str, ...] = (
        CHAOS_SCHEMES
        if schemes is None
        else tuple(validate_scheme_names(schemes))
    )
    if topology != "flat":
        # Validate the preset eagerly (and surface the fleet size the
        # payload will report) before fanning out worker processes.
        num_servers = SimulationConfig.for_topology(topology).num_servers
    duration_s = 90.0 if mode == "smoke" else 240.0
    check_positive("duration_s", duration_s)
    profiles = ("combined",) if mode == "smoke" else ("combined", "severe")
    if recorder is None:
        recorder = Recorder()

    specs: List[CellSpec] = []
    for profile in profiles:
        for scheme in selected:
            specs.append(
                CellSpec(
                    index=len(specs),
                    params={
                        "scheme": scheme,
                        "seed": seed,
                        "budget": budget.upper(),
                        "num_servers": num_servers,
                        "duration_s": duration_s,
                        "profile": profile,
                        "topology": topology,
                    },
                    seed=seed,
                )
            )
    outcomes = run_cells(
        chaos_cell,
        specs,
        workers=workers,
        cache=cache,
        experiment_id="repro.faults.chaos_cell",
        recorder=recorder,
    )
    cells: List[Dict[str, object]] = []
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        assert outcome.value is not None
        cells.append(outcome.value)

    scenario = {
        "mode": mode,
        "seed": seed,
        "budget": budget.upper(),
        "num_servers": num_servers,
        "duration_s": duration_s,
        "profiles": list(profiles),
        "schemes": list(selected),
        "topology": topology,
    }
    payload = {
        "schema": CHAOS_SCHEMA_ID,
        "name": name if name else f"chaos-{mode}",
        "mode": mode,
        "version": __version__,
        "seed": seed,
        "config_hash": config_hash(scenario),
        "scenario": scenario,
        "cells": cells,
        "counters": recorder.counters.as_dict(),
    }
    errors = validate_chaos_payload(payload)
    if errors:
        raise ValueError(
            "chaos payload failed validation: " + "; ".join(errors)
        )
    return payload


# ----------------------------------------------------------------------
# repro-chaos/1 schema
# ----------------------------------------------------------------------

#: Required top-level keys of a chaos document and their types.
_CHAOS_REQUIRED = {
    "schema": str,
    "name": str,
    "mode": str,
    "version": str,
    "seed": int,
    "config_hash": str,
    "scenario": dict,
    "cells": list,
    "counters": dict,
}

#: Keys every cell must report (the drop attribution is mandatory).
_CELL_REQUIRED = (
    "scheme",
    "seed",
    "profile",
    "fault_plan_signature",
    "faults_injected",
    "offered",
    "dropped",
    "dropped_fault",
    "dropped_policy",
    "availability",
    "peak_power_w",
)


def validate_chaos_payload(payload: object) -> List[str]:
    """Validate a chaos document; return a list of problems (empty = ok).

    Hand-rolled so a bare install needs no schema dependency.  Beyond
    structure it checks the layer's two contracts: every cell attributes
    its drops (``dropped == dropped_policy + dropped_fault``) and the
    document round-trips through strict JSON (``allow_nan=False`` — the
    NaN export bug class).
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"chaos payload must be a JSON object, got {type(payload).__name__}"]
    for key, expected in _CHAOS_REQUIRED.items():
        if key not in payload:
            problems.append(f"missing required key {key!r}")
        elif expected is int:
            if isinstance(payload[key], bool) or not isinstance(payload[key], int):
                problems.append(f"key {key!r} must be an int")
        elif not isinstance(payload[key], expected):
            problems.append(f"key {key!r} must be {expected.__name__}")
    if problems:
        return problems

    if payload["schema"] != CHAOS_SCHEMA_ID:
        problems.append(
            f"schema must be {CHAOS_SCHEMA_ID!r}, got {payload['schema']!r}"
        )
    if payload["mode"] not in ("smoke", "full"):
        problems.append(f"mode must be 'smoke' or 'full', got {payload['mode']!r}")

    for index, cell in enumerate(payload["cells"]):
        if not isinstance(cell, dict):
            problems.append(f"cells[{index}] must be an object")
            continue
        for key in _CELL_REQUIRED:
            if key not in cell:
                problems.append(f"cells[{index}] missing {key!r}")
        dropped = cell.get("dropped")
        policy = cell.get("dropped_policy")
        fault = cell.get("dropped_fault")
        if (
            isinstance(dropped, int)
            and isinstance(policy, int)
            and isinstance(fault, int)
            and dropped != policy + fault
        ):
            problems.append(
                f"cells[{index}] drop attribution does not add up: "
                f"{dropped} != {policy} + {fault}"
            )
    for counter_name, value in payload["counters"].items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"counter {counter_name!r} must be numeric")
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        problems.append(f"payload is not strict JSON: {exc}")
    return problems
