"""Unit coverage of the hierarchical power tree (repro.cluster.topology)."""

import pytest

from repro import DataCenterSimulation, SimulationConfig
from repro.cluster import (
    FLAT_TOPOLOGY,
    PowerTopology,
    TopologySpec,
    named_topology,
    topology_names,
)
from repro.faults import FaultInjector, FaultPlan
from repro.power import BudgetLevel, CappingScheme
from repro.workloads import COLLA_FILT, K_MEANS, uniform_mix

HEAVY = uniform_mix((COLLA_FILT, K_MEANS))


# ----------------------------------------------------------------------
# Spec + registry
# ----------------------------------------------------------------------


def test_spec_totals_multiply_out():
    spec = TopologySpec(name="t", rows=2, racks_per_row=3, servers_per_rack=4)
    assert spec.num_racks == 6
    assert spec.total_servers == 24


def test_spec_rejects_flat_name_and_bad_oversubs():
    with pytest.raises(ValueError):
        TopologySpec(
            name=FLAT_TOPOLOGY, rows=1, racks_per_row=1, servers_per_rack=1
        )
    with pytest.raises(ValueError):
        TopologySpec(
            name="t",
            rows=1,
            racks_per_row=1,
            servers_per_rack=1,
            feed_oversub=1.5,
        )
    with pytest.raises(ValueError):
        TopologySpec(
            name="t",
            rows=1,
            racks_per_row=1,
            servers_per_rack=1,
            rack_oversub=0.0,
        )
    # oversub of exactly 1.0 is legal (rack PDUs are not oversubscribed)
    TopologySpec(
        name="t", rows=1, racks_per_row=1, servers_per_rack=1, rack_oversub=1.0
    )


def test_registry_lists_flat_first_and_resolves_presets():
    names = topology_names()
    assert names[0] == FLAT_TOPOLOGY
    assert set(names[1:]) == {"tree-small", "tree-dc", "tree-pinned"}
    assert named_topology("tree-dc").total_servers == 16
    with pytest.raises(ValueError):
        named_topology("flat")
    with pytest.raises(ValueError):
        named_topology("no-such-tree")


def test_pinned_preset_is_the_vulnerability_arm():
    spec = named_topology("tree-pinned")
    assert spec.flowlet_gap_s is None
    assert spec.enforce_levels is False


# ----------------------------------------------------------------------
# Tree construction
# ----------------------------------------------------------------------


@pytest.fixture
def tree() -> PowerTopology:
    return PowerTopology(
        named_topology("tree-dc"), server_nameplate_w=100.0, budget_fraction=0.8
    )


def test_tree_nodes_own_contiguous_disjoint_slices(tree):
    spec = tree.spec
    assert tree.feed.num_servers == spec.total_servers
    racks = [tree.node(f"rack{k}") for k in range(spec.num_racks)]
    covered = []
    for rack in racks:
        covered.extend(range(rack.start, rack.stop))
    assert covered == list(range(spec.total_servers))
    for r in range(spec.rows):
        row = tree.node(f"row{r}")
        assert row.children == tuple(
            f"rack{r * spec.racks_per_row + p}"
            for p in range(spec.racks_per_row)
        )
        for child in row.children:
            assert tree.node(child).parent == row.name
    assert tree.feed.children == tuple(f"row{r}" for r in range(spec.rows))


def test_budgets_shrink_towards_the_root(tree):
    # 4 servers x 100 W x 0.8: rack 320 (x1.0), row 608 (8 leaves x0.95),
    # feed 1088 (16 leaves x0.85) — per-level oversubscription.
    assert tree.node("rack0").budget_w == pytest.approx(320.0)
    assert tree.node("row0").budget_w == pytest.approx(608.0)
    assert tree.feed.budget_w == pytest.approx(1088.0)
    # The oversubscription bet: the feed provisioned less than the sum
    # of its rows, the rows less than the sum of their racks.
    assert tree.feed.budget_w < 2 * tree.node("row0").budget_w
    assert tree.node("row0").budget_w < 2 * tree.node("rack0").budget_w


def test_lookups_validate_and_map_servers(tree):
    assert list(tree.servers_under("rack1")) == [4, 5, 6, 7]
    assert list(tree.servers_under("row1")) == list(range(8, 16))
    with pytest.raises(ValueError):
        tree.node("rack9")
    assert tree.enforcement_order[0].kind == "rack"
    assert tree.enforcement_order[-1].kind == "row"


# ----------------------------------------------------------------------
# Per-node power + monitor (through a live simulation)
# ----------------------------------------------------------------------


def _tree_sim(topology="tree-small", **flood_kwargs) -> DataCenterSimulation:
    cfg = SimulationConfig.for_topology(
        topology, budget_level=BudgetLevel.LOW, seed=1
    )
    sim = DataCenterSimulation(cfg)
    sim.add_normal_traffic(rate_rps=40.0)
    if flood_kwargs:
        sim.add_flood(**flood_kwargs)
    return sim


def test_node_power_is_bit_identical_to_leaf_sum():
    sim = _tree_sim(
        mix=HEAVY, rate_rps=200.0, num_agents=10, start_s=2.0
    )
    sim.run(10.0)
    topology, rack = sim.topology, sim.rack
    per_server = rack.per_server_power()
    powers = topology.per_node_power(rack)
    for name, node in topology.nodes.items():
        expected = 0.0
        for value in per_server[node.start : node.stop]:
            expected += value
        assert powers[name] == expected  # bitwise, not approx
        assert topology.node_power_w(name, rack) == expected
    # The feed view is the flat rack total, reduced in the same order.
    assert powers["feed"] == rack.total_power()


def test_monitor_attributes_deepest_violation():
    sim = _tree_sim(
        mix=HEAVY,
        rate_rps=260.0,
        num_agents=10,
        start_s=2.0,
        closed_loop=False,
    )
    sim.run(15.0)
    monitor = sim.topology_monitor
    report = monitor.report()
    assert set(report) == set(sim.topology.nodes)
    # tree-small at LOW provisions the feed at 544 W for 8 servers: the
    # open-loop heavy flood violates somewhere below the root.
    total_violations = sum(n["violation_slots"] for n in report.values())
    assert total_violations > 0
    deepest = monitor.deepest_violator()
    assert deepest is not None
    # Deepest attribution never picks a node with a violated child at
    # the same sampled instant, so slots never exceed the node's own.
    for name, node in report.items():
        assert (
            node["deepest_violation_slots"] <= node["violation_slots"]
        ), name
    # The report's tallies are the counter table's.
    counters = sim.engine.obs.counters
    for name, node in report.items():
        if node["violation_slots"]:
            assert counters.get(f"topology.violation_slots.{name}") == (
                node["violation_slots"]
            )


def test_monitor_cannot_start_twice():
    sim = _tree_sim()
    sim.run(1.0)
    with pytest.raises(RuntimeError):
        sim.topology_monitor.start(1.0)


def test_per_pdu_enforcement_caps_levels_on_enforcing_trees():
    cfg = SimulationConfig.for_topology(
        "tree-dc", budget_level=BudgetLevel.LOW, seed=1
    )
    sim = DataCenterSimulation(cfg, scheme=CappingScheme())
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(
        mix=HEAVY, rate_rps=400.0, num_agents=16, start_s=2.0, closed_loop=False
    )
    sim.run(15.0)
    counters = sim.engine.obs.counters.as_dict()
    cap_slots = {
        name: value
        for name, value in counters.items()
        if name.startswith("topology.cap_slots.")
    }
    assert cap_slots, "expected per-PDU enforcement to fire on tree-dc"


def test_unenforced_tree_never_caps():
    cfg = SimulationConfig.for_topology(
        "tree-pinned", budget_level=BudgetLevel.LOW, seed=1
    )
    sim = DataCenterSimulation(cfg, scheme=CappingScheme())
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(
        mix=HEAVY, rate_rps=400.0, num_agents=16, start_s=2.0, closed_loop=False
    )
    sim.run(15.0)
    counters = sim.engine.obs.counters.as_dict()
    assert not any(n.startswith("topology.cap_slots.") for n in counters)


# ----------------------------------------------------------------------
# Fault cascade
# ----------------------------------------------------------------------


def test_rack_pdu_trip_cascades_to_its_servers_only():
    sim = _tree_sim("tree-dc")
    plan = FaultPlan(seed=1).pdu_trip(2.0, 3.0, node="rack0")
    FaultInjector(sim, plan).arm()
    sim.run(4.0)  # trip at t=2, restore at t=5: still down at t=4
    healthy = [s.healthy for s in sim.rack.servers]
    assert healthy == [False] * 4 + [True] * 12
    counters = sim.engine.obs.counters
    assert counters.get("topology.pdu_trips.rack0") == 1
    assert counters.get("cluster.server_failures") == 4
    sim.run(6.0)  # past the restore
    assert all(s.healthy for s in sim.rack.servers)
    assert counters.get("cluster.server_recoveries") == 4


def test_row_pdu_trip_takes_down_both_of_its_racks():
    sim = _tree_sim("tree-dc")
    plan = FaultPlan(seed=1).pdu_trip(2.0, 3.0, node="row1")
    FaultInjector(sim, plan).arm()
    sim.run(4.0)
    healthy = [s.healthy for s in sim.rack.servers]
    assert healthy == [True] * 8 + [False] * 8
    assert sim.engine.obs.counters.get("topology.pdu_trips.row1") == 1


def test_node_scoped_trip_requires_a_tree():
    cfg = SimulationConfig(budget_level=BudgetLevel.LOW, seed=1)
    sim = DataCenterSimulation(cfg)
    plan = FaultPlan(seed=1).pdu_trip(1.0, 2.0, node="rack0")
    with pytest.raises(ValueError, match="flat topology"):
        FaultInjector(sim, plan).arm()


def test_unscoped_trip_keeps_legacy_whole_fleet_semantics():
    sim = _tree_sim("tree-small")
    plan = FaultPlan(seed=1).pdu_trip(2.0, 3.0)
    FaultInjector(sim, plan).arm()
    sim.run(4.0)
    assert not any(s.healthy for s in sim.rack.servers)
    # Legacy events serialise without a node key, preserving committed
    # plan signatures from before the topology layer.
    assert "node" not in plan.events[0].to_dict()


def test_node_scoped_plan_signature_includes_the_node():
    plan = FaultPlan(seed=1).pdu_trip(2.0, 3.0, node="row0")
    assert '"node":"row0"' in plan.signature()


def test_chaos_cell_on_a_tree_reports_topology_and_scoped_trip():
    from repro.faults import chaos_cell

    kwargs = dict(
        scheme="capping",
        seed=1,
        duration_s=30.0,
        profile="severe",
        topology="tree-small",
    )
    cell = chaos_cell(**kwargs)
    assert cell["topology"] == "tree-small"
    report = cell["topology_report"]
    assert set(report) == {"feed", "row0", "rack0", "rack1"}
    # The severe profile's PDU trip is row-scoped on trees: the plan
    # carries the node and the cascade injects as a pdu_trip.
    assert '"node":"row0"' in cell["fault_plan_signature"]
    assert cell["faults_injected"].get("pdu_trip", 0) >= 1
    # Cells stay deterministic per arguments (cacheable, poolable).
    assert chaos_cell(**kwargs) == cell


# ----------------------------------------------------------------------
# Config integration
# ----------------------------------------------------------------------


def test_config_rejects_unknown_topology_and_fleet_mismatch():
    with pytest.raises(ValueError):
        SimulationConfig(topology="tree-huge")
    with pytest.raises(ValueError):
        SimulationConfig(topology="tree-dc", num_servers=4)


def test_for_topology_sizes_the_fleet_from_the_preset():
    cfg = SimulationConfig.for_topology("tree-dc")
    assert cfg.num_servers == 16
    assert cfg.topology_spec is named_topology("tree-dc")
    assert SimulationConfig.for_topology(FLAT_TOPOLOGY).topology_spec is None


def test_tree_budget_is_the_feed_budget():
    cfg = SimulationConfig.for_topology(
        "tree-dc", budget_level=BudgetLevel.LOW, seed=1
    )
    sim = DataCenterSimulation(cfg)
    assert sim.budget.supply_w == pytest.approx(sim.topology.feed.budget_w)
    report = sim.topology_monitor.report()
    assert set(report) == set(sim.topology.nodes)
