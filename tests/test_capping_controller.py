"""The capping controller against reference copies of its search loops.

Every capping scheme ends by picking the highest DVFS level whose
predicted power fits a cap: Capping and Shaving for the whole rack
(``apply_uniform_cap``), per-PDU protection for each tree node, and DPM
(Algorithm 1) for the suspect pool and then the innocent pool.  The
functions below are reference copies of those searches written as the
plain loops they once were.  The controller must evaluate the same
levels in the same order, pick the same levels and count the same
``power.prediction_evals``, so the frozen golden tables and perfbench
digests cannot move.  The pinning tests go through public methods only;
the helper's own unit test imports it inside the test.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BudgetLevel,
    DataCenterSimulation,
    OnlineDetectScheme,
    SimulationConfig,
)
from repro.cluster import Rack
from repro.core import DPMPlanner, ThrottlePlan
from repro.network import Request
from repro.power import Battery, CappingScheme, PowerBudget, ShavingScheme
from repro.power.manager import NullScheme
from repro.sim import EventEngine
from repro.workloads import ALL_TYPES, TrafficClass

#: Request types busy on one server: at most its 8 workers, so every
#: request is in service and none waits in the queue.
busy_types = st.lists(st.sampled_from(ALL_TYPES), max_size=8)
levels = st.integers(min_value=0, max_value=12)
hysteresis_bands = st.floats(min_value=0.0, max_value=0.5, exclude_max=True)


def _load(server, rtypes, level) -> None:
    for source, rtype in enumerate(rtypes):
        assert server.submit(Request(rtype, source, TrafficClass.NORMAL, 0.0))
    server.set_level(level)


# ----------------------------------------------------------------------
# Reference copies of the search loops
# ----------------------------------------------------------------------


def _reference_predict(servers, ladder, level, tally):
    tally["evals"] += 1
    clamped = ladder.clamp(level)
    total = 0.0
    for server in servers:
        total += server.power_at_level(clamped)
    return total


def _reference_uniform_cap(rack, cap_w, hysteresis):
    """Rack-wide uniform cap: one pass against the cap, then a raise
    guard that walks down from that level to just above the current
    one.  Returns (level, prediction evaluations)."""
    tally = Counter()
    servers, ladder = rack.servers, rack.ladder
    current = min(s.level for s in servers)
    target = 0
    for level in range(ladder.max_level, -1, -1):
        if _reference_predict(servers, ladder, level, tally) <= cap_w:
            target = level
            break
    if target > current:
        guard = cap_w * (1.0 - hysteresis)
        while target > current and _reference_predict(
            servers, ladder, target, tally
        ) > guard:
            target -= 1
    return target, tally["evals"]


def _reference_node_caps(rack, topology):
    """Deepest-first per-PDU sweep; applies its levels to *rack*.

    Returns (prediction evaluations, cap slots per node name)."""
    tally = Counter()
    cap_slots = Counter()
    ladder = rack.ladder
    for node in topology.enforcement_order:
        servers = rack.servers[node.start : node.stop]
        power_w = 0.0
        for server in servers:
            power_w += server.current_power()
        if power_w <= node.budget_w:
            continue
        cap_slots[node.name] += 1
        target = 0
        for level in range(ladder.max_level, -1, -1):
            if _reference_predict(servers, ladder, level, tally) <= node.budget_w:
                target = level
                break
        for server in servers:
            if server.level > target:
                server.set_level(target)
    return tally["evals"], cap_slots


def _reference_plan(max_level, hysteresis, cap_w, predict, current_p, current_q):
    """DPM's two phases, each one descending scan where a level above
    the pool's current one must fit the guard and any other the cap."""
    guard = cap_w * (1.0 - hysteresis)

    def fitting(power_at, current):
        for level in range(max_level, -1, -1):
            power_w = power_at(level)
            limit = guard if level > current else cap_w
            if power_w <= limit:
                return level
        return None

    choice = fitting(lambda p: predict(p, max_level), current_p)
    if choice is not None:
        return ThrottlePlan(choice, max_level, True)
    choice = fitting(lambda q: predict(0, q), current_q)
    if choice is not None:
        return ThrottlePlan(0, choice, True)
    return ThrottlePlan(0, 0, False)


# ----------------------------------------------------------------------
# The shared search
# ----------------------------------------------------------------------


def test_search_helpers_scan_down_and_stop_at_the_first_fit():
    from repro.power.manager import highest_fitting_level, highest_guarded_level

    power = [10.0, 20.0, 30.0, 40.0, 50.0]
    calls = []

    def power_at(level):
        calls.append(level)
        return power[level]

    assert highest_fitting_level(power_at, 30.0, 4) == 2
    assert calls == [4, 3, 2]
    assert highest_fitting_level(power_at, 35.0, 2) == 2
    assert highest_fitting_level(power_at, 5.0, 4) is None
    calls.clear()
    assert highest_fitting_level(power_at, 100.0, 4, 4) == 4
    assert highest_fitting_level(power_at, 15.0, 4, 2) is None
    assert calls == [4, 4, 3, 2]
    assert highest_fitting_level(power_at, 100.0, 2, 3) is None  # empty
    assert calls == [4, 4, 3, 2]
    calls.clear()
    # Raising from level 1: level 3 fits the cap but not the guard.
    assert highest_guarded_level(power_at, 40.0, 35.0, 4, 1) == 2
    assert calls == [4, 3, 2]
    assert highest_guarded_level(power_at, 40.0, 35.0, 4, 3) == 3
    assert highest_guarded_level(power_at, 5.0, 5.0, 4, 2) is None


# ----------------------------------------------------------------------
# Capping and Shaving: the rack-wide uniform cap
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    scheme_cls=st.sampled_from([CappingScheme, ShavingScheme]),
    loads=st.lists(st.tuples(busy_types, levels), min_size=1, max_size=6),
    cap_fraction=st.floats(min_value=0.25, max_value=1.05),
    hysteresis=hysteresis_bands,
)
def test_uniform_cap_matches_the_two_pass_loop(
    scheme_cls, loads, cap_fraction, hysteresis
):
    engine = EventEngine()
    rack = Rack(engine, num_servers=len(loads), rng=np.random.default_rng(0))
    scheme = scheme_cls(hysteresis=hysteresis)
    battery = Battery.for_rack(rack.nameplate_w)
    scheme.bind(engine, rack, PowerBudget(rack.nameplate_w), battery, 1.0)
    for server, (rtypes, level) in zip(rack.servers, loads):
        _load(server, rtypes, level)
    cap_w = cap_fraction * rack.nameplate_w

    expected, evals = _reference_uniform_cap(rack, cap_w, hysteresis)
    counters = engine.obs.counters
    before = counters.get("power.prediction_evals")
    assert scheme.apply_uniform_cap(cap_w) == expected
    assert rack.levels() == [expected] * len(loads)
    assert counters.get("power.prediction_evals") - before == evals


# ----------------------------------------------------------------------
# Per-PDU enforcement on the 16-server tree
# ----------------------------------------------------------------------


def _loaded_tree(loads, budget_level):
    config = SimulationConfig.for_topology("tree-dc", budget_level=budget_level, seed=1)
    sim = DataCenterSimulation(config, scheme=NullScheme())
    for server, (rtypes, level) in zip(sim.rack.servers, loads):
        _load(server, rtypes, level)
    return sim


@settings(max_examples=40, deadline=None)
@given(
    loads=st.lists(st.tuples(busy_types, levels), min_size=16, max_size=16),
    budget_level=st.sampled_from(list(BudgetLevel)),
)
def test_node_enforcement_matches_the_deepest_first_loop(loads, budget_level):
    reference = _loaded_tree(loads, budget_level)
    evals, cap_slots = _reference_node_caps(reference.rack, reference.topology)

    sim = _loaded_tree(loads, budget_level)
    sim.scheme._enforce_node_budgets()
    assert sim.rack.levels() == reference.rack.levels()
    counters = sim.obs.counters.as_dict()
    assert counters.get("power.prediction_evals", 0) == evals
    assert {
        name[len("topology.cap_slots.") :]: value
        for name, value in counters.items()
        if name.startswith("topology.cap_slots.")
    } == dict(cap_slots)


# ----------------------------------------------------------------------
# DPM (Algorithm 1)
# ----------------------------------------------------------------------


@st.composite
def power_tables(draw):
    """A power table non-decreasing in both pool levels."""
    max_level = draw(st.integers(min_value=0, max_value=12))
    n = max_level + 1
    steps = st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=n, max_size=n)
    suspect = np.cumsum(draw(steps))
    innocent = np.cumsum(draw(steps))
    coupling = draw(st.floats(min_value=0.0, max_value=0.2))
    return max_level, [
        [float(s + i + coupling * s * i) for i in innocent] for s in suspect
    ]


@settings(max_examples=300, deadline=None)
@given(
    table=power_tables(),
    cap_fraction=st.floats(min_value=0.0, max_value=1.2),
    hysteresis=hysteresis_bands,
    data=st.data(),
)
def test_dpm_plan_matches_the_single_loop(table, cap_fraction, hysteresis, data):
    max_level, power = table
    current_p = data.draw(st.integers(min_value=0, max_value=max_level))
    current_q = data.draw(st.integers(min_value=0, max_value=max_level))
    cap_w = cap_fraction * power[max_level][max_level]

    def recorder(calls):
        def predict(p, q):
            calls.append((p, q))
            return power[p][q]

        return predict

    expected_calls, calls = [], []
    expected = _reference_plan(
        max_level, hysteresis, cap_w, recorder(expected_calls), current_p, current_q
    )
    plan = DPMPlanner(max_level, hysteresis).plan(
        cap_w, recorder(calls), current_p, current_q
    )
    assert calls == expected_calls
    assert plan == expected


# ----------------------------------------------------------------------
# Row placement: one carve, one queue cap
# ----------------------------------------------------------------------


def test_row_placement_caps_only_the_row_quarantine_servers():
    config = SimulationConfig.for_topology("tree-dc", seed=1)
    scheme = OnlineDetectScheme(suspect_pool_size=2, placement="row")
    sim = DataCenterSimulation(config, scheme=scheme)
    assert scheme.suspect_server_ids == [7, 15]
    capacities = [server.queue_capacity for server in sim.rack.servers]
    assert capacities[7] == capacities[15] == 4 * 8
    assert capacities[14] == 512
    assert capacities.count(512) == 14
