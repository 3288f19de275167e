"""What the benchmark measures: workload names and metric definitions.

``BENCHMARK.json`` at the repository root mirrors these tables (a test
keeps the two in step).  This module imports nothing from the simulator,
so the parent process (``run.py``) can read it without paying the
simulator's import.
"""

from __future__ import annotations

#: The seed ``reference.json`` digests are recorded for.
REFERENCE_SEED = 7

#: Workload names, in the round-robin order runs are made in.
WORKLOAD_NAMES = (
    "table2-antidope",
    "volume-flood",
    "tree-dc-capping",
    "region-sweep-detect",
)

#: End-to-end metrics: ``(name, unit, better)``.  Measured with tracing off.
END_TO_END = (
    ("sim_s_per_ref_cpu_s", "sim-s/ref-cpu-s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Layers the tracer splits wall time into, outermost first.  Each gets
#: ``<layer>.calls``, ``<layer>.self_s`` and ``<layer>.share``.
LAYERS = (
    "sim.engine",
    "sim.fluid",
    "sim.simulation",
    "workloads",
    "network.load_balancer",
    "network.firewall",
    "network.fabric",
    "core.pdf",
    "cluster.server",
    "cluster.rack",
    "cluster.topology",
    "power.manager",
    "power.meter",
    "detect",
    "metrics.collector",
    "runner",
)

#: Per-layer metrics beyond calls/self time/share: ``(name, unit, better)``.
LAYER_EXTRAS = {
    "sim.engine": (
        ("sim.engine.heap_events", "count", "lower"),
        ("sim.engine.inline_arrivals", "count", "higher"),
    ),
    "sim.fluid": (
        ("sim.fluid.arrivals", "count", "higher"),
        ("sim.fluid.segments", "count", "lower"),
        ("sim.fluid.fidelity_err", "ratio", "lower"),
    ),
    "network.load_balancer": (
        ("network.load_balancer.forward_ratio", "ratio", "higher"),
    ),
    "network.firewall": (("network.firewall.reject_ratio", "ratio", "lower"),),
    "cluster.server": (
        ("cluster.server.reject_ratio", "ratio", "lower"),
        ("cluster.server.power_evals", "count", "lower"),
        ("cluster.server.dvfs_transitions", "count", "lower"),
    ),
    "power.manager": (("power.manager.violation_slots", "count", "lower"),),
    "metrics.collector": (("metrics.collector.records", "count", "lower"),),
    "runner": (("runner.overhead_s", "s", "lower"),),
}

#: Whole-trace metrics: tracing cost and time no layer span covered.
TRACE_METRICS = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def _per_layer():
    rows = []
    for layer in LAYERS:
        rows.append((f"{layer}.calls", "count", "lower"))
        rows.append((f"{layer}.self_s", "s", "lower"))
        rows.append((f"{layer}.share", "ratio", "lower"))
        rows.extend(LAYER_EXTRAS.get(layer, ()))
    rows.extend(TRACE_METRICS)
    return tuple(rows)


#: Every per-layer metric, reported by the traced run only.
PER_LAYER = _per_layer()
