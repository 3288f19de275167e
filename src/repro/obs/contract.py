"""The observability contract: every counter and timer name, declared.

:class:`~repro.obs.counters.Counters` and
:class:`~repro.obs.timers.WallTimers` are deliberately permissive —
``inc("typo.name")`` mints a new counter and ``get("typo.name")``
reads 0, both silently.  That permissiveness is what makes a misspelled
name a *data* bug instead of a crash: the dashboard column is zero and
nothing ever says why.

This module is the fix: a central registry of every telemetry name the
simulator emits.  It is enforced twice —

* statically, by the REP011 lint rule
  (:mod:`repro.devtools.registries`), which flags any string-literal
  counter/timer name in ``src/repro`` that is not declared here;
* dynamically, by anyone who wants it: :func:`is_declared_counter` /
  :func:`is_declared_timer` are cheap enough for asserts in tests.

Adding a counter is a two-line diff by design: the ``inc()`` call and
the declaration here.  A name removed from the code should be removed
from the registry in the same PR — the registry is a contract, not an
archive.

Names with a runtime-variable tail (per-fault-kind, per-outcome) are
declared by prefix in :data:`COUNTER_PREFIXES`; the static rule checks
the literal head of the f-string against these.

A second axis splits the counters themselves: most count *model*
events (arrivals, drops, control slots) and must be byte-identical
between same-seed runs in any engine execution mode; a few count
*execution* work (cache-miss power evaluations, cohort bookkeeping)
and legitimately differ between the scalar and batched engines.  The
latter are listed in :data:`EXECUTION_COUNTER_NAMES` and excluded from
:meth:`~repro.obs.manifest.RunManifest.deterministic_payload`.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = [
    "COUNTER_NAMES",
    "COUNTER_PREFIXES",
    "EXECUTION_COUNTER_NAMES",
    "TIMER_NAMES",
    "is_declared_counter",
    "is_declared_timer",
    "is_execution_counter",
]

#: Every fixed-name counter the simulator increments or reads.
COUNTER_NAMES: FrozenSet[str] = frozenset(
    {
        # sim.engine — event loop accounting
        "engine.run_calls",
        "engine.events_dispatched",
        "engine.sim_time_advanced_s",
        "engine.cohorts_dispatched",
        "engine.cohort_requests",
        "engine.fluid_segments",
        "engine.fluid_time_advanced_s",
        # sim.cluster — server fleet lifecycle
        "cluster.power_model_evals",
        "cluster.dvfs_transitions",
        "cluster.server_failures",
        "cluster.server_recoveries",
        "cluster.requests_lost_to_crash",
        "cluster.requests_shed_to_nlb",
        # network — NLB routing and the power-deficit firewall
        "network.nlb_rerouted",
        "network.nlb_forwarded",
        "network.nlb_retries",
        "network.pdf_suspect_forwarded",
        "network.pdf_innocent_forwarded",
        "network.pdf_failover_forwarded",
        # power — budget control loop and sensor fallbacks
        "power.control_slots",
        "power.budget_violation_slots",
        "power.battery_discharge_slots",
        "power.sensor_stale_fallbacks",
        "power.sensor_worst_case_fallbacks",
        "power.prediction_evals",
        # runner — sweep executor and cache
        "runner.cells_total",
        "runner.cells_executed",
        "runner.cache_hits",
        "runner.cache_misses",
        "runner.cell_retries",
        "runner.cell_errors",
    }
)

#: Prefixes for counter families whose tail is runtime data (a fault
#: kind, a request outcome).  A dynamic name is declared iff it starts
#: with one of these.
COUNTER_PREFIXES: FrozenSet[str] = frozenset(
    {
        "faults.injected.",
        "network.nlb_dropped.",
        # Power-tree families: the tail is a tree node name (rack0,
        # row1, feed) — violation_slots / deepest_violation_slots from
        # the topology monitor, cap_slots from per-PDU enforcement,
        # pdu_trips from node-targeted fault cascades.
        "topology.",
        # Fabric families: flows/flowlets/path_switches/failovers plus
        # per-rack forwarded.rackN tails.
        "fabric.",
        # Online-detection pipeline: arrival/completion taps, dynamic
        # suspect-pool forwarding splits, quarantine enter/exit churn,
        # warm-up slots and calibration clamping under meter faults.
        "detect.",
        # Prediction-based oversubscription: per-slot tier tallies
        # (healthy/warn/soft_cap/hard_cap) plus the blind-violation
        # slots where measured power exceeds the true supply while the
        # history forecast still reports healthy.
        "predict.",
    }
)

#: Counters that measure how the simulator *computed* a run rather
#: than what happened in it.  They vary with the engine execution mode
#: (scalar vs. batched vs. fluid) while everything else stays
#: byte-identical, so the deterministic manifest excludes them.  Still
#: full members of :data:`COUNTER_NAMES` — they appear in telemetry
#: and REP011 gates their spelling like any other name.
EXECUTION_COUNTER_NAMES: FrozenSet[str] = frozenset(
    {
        "engine.cohorts_dispatched",
        "engine.cohort_requests",
        "engine.fluid_segments",
        "engine.fluid_time_advanced_s",
        "cluster.power_model_evals",
    }
)

#: Every wall-timer phase name.
TIMER_NAMES: FrozenSet[str] = frozenset(
    {
        "engine.run",
        "runner.run_cells",
        "runner.cell",
        "runner.pool_batch",
    }
)


def is_declared_counter(name: str) -> bool:
    """True when *name* is a declared counter (exact or by prefix)."""
    if name in COUNTER_NAMES:
        return True
    return any(name.startswith(prefix) for prefix in COUNTER_PREFIXES)


def is_declared_timer(name: str) -> bool:
    """True when *name* is a declared wall-timer phase."""
    return name in TIMER_NAMES


def is_execution_counter(name: str) -> bool:
    """True when *name* counts execution work, not model events.

    Execution counters are excluded from deterministic manifests — two
    same-seed runs in different engine modes may disagree on them.
    """
    return name in EXECUTION_COUNTER_NAMES
