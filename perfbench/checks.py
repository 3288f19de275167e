"""Output checks: digests, request conservation and fluid fidelity.

* **Digest** — a canonical-JSON sha256 over a run's outputs (per-class
  outcome counts, NORMAL p50/p99 latency, meter peak and mean power and
  the deterministic counter table; the grid rows and summed counters
  for the region sweep).  Every run of one invocation must share one
  digest; at the reference seed it must equal ``reference.json``.
* **Conservation** — in every simulation, requests generated equal
  requests recorded by the collector plus requests still in a server.
* **Fluid fidelity** — a 120 s prefix of the volume flood on the fluid
  engine, compared with the exact batched engine's values committed in
  ``reference.json`` under :data:`FIDELITY_TOLERANCES`.  The prefix
  always uses the reference seed, so it compares like with like.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

from .spec import REFERENCE_SEED

__all__ = [
    "FIDELITY_DURATION_S",
    "FIDELITY_TOLERANCES",
    "REFERENCE_PATH",
    "digest",
    "conservation_errors",
    "load_reference",
    "prefix_quantities",
    "fluid_fidelity",
]

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

FIDELITY_DURATION_S = 120.0

#: Largest relative error the fluid prefix may show against batched, by
#: quantity kind.  Only the flood's firewall-drop count is expected to
#: differ (one Poisson draw per fluid segment replaces the per-arrival
#: gaps); its sampling spread at ~1.4 M arrivals is under 0.1 %.
FIDELITY_TOLERANCES = {"outcomes": 0.01, "latency": 0.05, "power": 0.02}


def digest(obj: object) -> str:
    """sha256 of the canonical JSON form of *obj*."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conservation_errors(stats: Dict[str, object]) -> List[str]:
    """One message per simulation whose request ledger does not balance."""
    return [
        f"conservation broken: generated {generated} != "
        f"collected + in system {accounted}"
        for generated, accounted in stats["conservation"]
        if generated != accounted
    ]


def load_reference() -> Dict[str, object]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def prefix_quantities(fluid: bool) -> Dict[str, float]:
    """Flat ``kind.name`` quantities of the volume-flood prefix."""
    from .workloads import sim_facts, volume_flood_sim

    sim = volume_flood_sim(REFERENCE_SEED, fluid=fluid)
    sim.run(FIDELITY_DURATION_S)
    facts = sim_facts(sim)
    quantities = {
        f"outcomes.{traffic_class}.{outcome}": float(n)
        for traffic_class, counts in facts["outcomes"].items()
        for outcome, n in counts.items()
    }
    quantities["latency.normal_p50_s"] = facts["normal_p50_s"]
    quantities["latency.normal_p99_s"] = facts["normal_p99_s"]
    quantities["power.meter_peak_w"] = facts["meter_peak_w"]
    quantities["power.meter_mean_w"] = facts["meter_mean_w"]
    return quantities


def fluid_fidelity(batched: Dict[str, float]) -> Tuple[float, List[str]]:
    """Largest relative error of the fluid prefix against *batched*.

    Returns ``(max_rel_err, errors)``; *errors* names every quantity
    outside its tolerance.
    """
    fluid = prefix_quantities(fluid=True)
    worst = 0.0
    errors = []
    for name in sorted(set(batched) | set(fluid)):
        exact = batched.get(name, 0.0)
        approx = fluid.get(name, 0.0)
        if approx == exact:
            rel_err = 0.0
        elif exact == 0.0:
            rel_err = float("inf")
        else:
            rel_err = abs(approx - exact) / abs(exact)
        worst = max(worst, rel_err)
        tolerance = FIDELITY_TOLERANCES[name.split(".", 1)[0]]
        if not rel_err <= tolerance:
            errors.append(
                f"fluid fidelity: {name} fluid {approx} vs batched {exact} "
                f"(relative error {rel_err:.3g} > {tolerance})"
            )
    return worst, errors
