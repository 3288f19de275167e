"""Seeded REP011 violations: counter/timer names missing from the
obs contract registry (each is a near-miss of a declared name).

Every marked line must yield exactly one REP011 finding.
"""


def record(counters, timers, kind):
    counters.inc("runner.cache_hitz")  # VIOLATION: typo of cache_hits
    counters.get("engine.run_cals")  # VIOLATION: typo of run_calls
    counters.inc(f"faults.injectd.{kind}")  # VIOLATION: typo'd prefix
    with timers.phase("runner.cel"):  # VIOLATION: typo of runner.cell
        pass


def record_aggregate_flow(counters, timers):
    counters.inc("engine.cohort_dispatched")  # VIOLATION: typo of cohorts_dispatched
    counters.inc("engine.fluid_segment")  # VIOLATION: typo of fluid_segments
    counters.inc("cluster.power_model_eval")  # VIOLATION: typo of power_model_evals
    with timers.phase("engine.runs"):  # VIOLATION: typo of engine.run
        pass


def record_topology(counters, timers, node):
    counters.inc("fabrc.path_switches")  # VIOLATION: typo of the fabric. prefix
    counters.inc(f"topologee.cap_slots.{node}")  # VIOLATION: typo of the topology. prefix
    with timers.phase("runner.run_cell"):  # VIOLATION: typo of runner.run_cells
        pass


def record_detection(counters, timers):
    counters.inc("detct.arrivals_observed")  # VIOLATION: typo of the detect. prefix
    counters.inc("detect-quarantine_enters")  # VIOLATION: dash where the detect. prefix has a dot
    with timers.phase("runner.pool_bach"):  # VIOLATION: typo of runner.pool_batch
        pass


def record_prediction(counters, timers):
    counters.inc("predit.healthy_slots")  # VIOLATION: typo of the predict. prefix
    counters.inc("predict_soft_cap_slots")  # VIOLATION: underscore where the predict. prefix has a dot
    with timers.phase("runner.cells"):  # VIOLATION: typo of runner.cell
        pass
