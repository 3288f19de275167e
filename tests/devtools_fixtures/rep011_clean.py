"""Clean twin for REP011: declared names, declared prefixes, and a
runtime-computed name the rule abstains on."""


def record(counters, timers, kind):
    counters.inc("runner.cache_hits")
    counters.get("engine.run_calls")
    counters.inc(f"faults.injected.{kind}")
    with timers.phase("runner.cell"):
        pass
    name = compute_name(kind)
    counters.inc(name)  # fully dynamic: the rule abstains


def compute_name(kind):
    return f"faults.injected.{kind}"


def record_aggregate_flow(counters, timers):
    """The batched/fluid engine's names, all declared in the contract."""
    counters.inc("engine.cohorts_dispatched")
    counters.inc("engine.cohort_requests", 4)
    counters.inc("engine.fluid_segments")
    counters.inc("engine.fluid_time_advanced_s", 0.5)
    counters.inc("cluster.power_model_evals", 16)
    with timers.phase("engine.run"):
        pass


def record_topology(counters, timers, node):
    """The power-tree/fabric families, declared by prefix."""
    counters.inc("fabric.flows")
    counters.inc("fabric.path_switches")
    counters.inc(f"topology.violation_slots.{node}")
    counters.inc(f"topology.cap_slots.{node}")
    with timers.phase("runner.run_cells"):
        pass


def record_detection(counters, timers):
    """The online-detector family, declared by the detect. prefix."""
    counters.inc("detect.arrivals_observed")
    counters.inc("detect.quarantine_enters", 3)
    counters.inc("detect.calibration_clamped")
    with timers.phase("runner.pool_batch"):
        pass


def record_prediction(counters, timers):
    """The prediction-scheme family, declared by the predict. prefix."""
    counters.inc("predict.healthy_slots")
    counters.inc("predict.soft_cap_slots", 2)
    counters.inc("predict.blind_violation_slots")
    with timers.phase("runner.cell"):
        pass
