"""Property-based tests (hypothesis) on the topology + fabric layers.

Three contracts the topology PR rests on:

* **Flowlet conservation** — every request handed to the fabric exits
  on exactly one path: the chosen backend is one of the fabric's
  servers and the per-rack ``fabric.forwarded.rackN`` counters sum to
  exactly the number of selects, for any flow/timing pattern.
* **ECMP hash determinism** — path choice is a pure function of
  (salt, flow, flowlet, path-space): same inputs, same path, always in
  range.  This is what makes tree runs byte-identical across engines
  and worker processes.
* **Per-level power bit-identity** — a node's power reading is the
  left-to-right Python sum over its leaf slice, bitwise equal to
  summing those leaf servers by hand, for arbitrary float magnitudes.
  (Bitwise, not approx: per-level readings feed deterministic-hash
  regression gates.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PowerTopology, Rack, TopologySpec
from repro.network import FlowletEcmpFabric, ecmp_path
from repro.obs import Recorder
from repro.sim.engine import EventEngine


def _racks(num_racks, servers_per_rack):
    """Rack slices of real servers; server *s* lives in rack s // per."""
    servers = Rack(EventEngine(), num_servers=num_racks * servers_per_rack).servers
    return [
        servers[k * servers_per_rack : (k + 1) * servers_per_rack]
        for k in range(num_racks)
    ]


class _FakeRequest:
    def __init__(self, source_id: int, arrival_time_s: float) -> None:
        self.source_id = source_id
        self.arrival_time_s = arrival_time_s


class _StubRack:
    """Stands in for Rack where only per_server_power() is consumed."""

    def __init__(self, powers_w) -> None:
        self._powers_w = list(powers_w)

    def per_server_power(self):
        return list(self._powers_w)


# ----------------------------------------------------------------------
# Flowlet conservation
# ----------------------------------------------------------------------

_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # flow id
        st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
        ),  # inter-arrival gap
    ),
    min_size=1,
    max_size=200,
)


class TestFlowletConservation:
    @settings(max_examples=50, deadline=None)
    @given(requests=_requests, gap_on=st.booleans())
    def test_every_request_exits_on_exactly_one_path(self, requests, gap_on):
        obs = Recorder()
        racks = _racks(4, 4)
        fabric = FlowletEcmpFabric(
            racks,
            flowlet_gap_s=0.05 if gap_on else None,
            salt=7,
            obs=obs,
        )
        servers = [s for rack in racks for s in rack]
        now_s = 0.0
        for flow_id, gap_s in requests:
            now_s += gap_s
            chosen = fabric.select(_FakeRequest(flow_id, now_s), ())
            assert chosen in servers  # exactly one backend, of the fabric's
        counters = obs.counters.as_dict()
        forwarded = sum(
            value
            for name, value in counters.items()
            if name.startswith("fabric.forwarded.rack")
        )
        assert forwarded == len(requests)
        # Flows seen equals distinct source ids, regardless of timing.
        assert counters.get("fabric.flows") == len(
            {flow_id for flow_id, _ in requests}
        )

    @settings(max_examples=50, deadline=None)
    @given(requests=_requests)
    def test_pinned_flows_never_change_rack(self, requests):
        fabric = FlowletEcmpFabric(_racks(4, 4), flowlet_gap_s=None, salt=3)
        rack_of_flow = {}
        now_s = 0.0
        for flow_id, gap_s in requests:
            now_s += gap_s
            chosen = fabric.select(_FakeRequest(flow_id, now_s), ())
            rack = chosen.server_id // 4
            assert rack_of_flow.setdefault(flow_id, rack) == rack


# ----------------------------------------------------------------------
# ECMP hash determinism
# ----------------------------------------------------------------------

_u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestEcmpDeterminism:
    @settings(max_examples=200, deadline=None)
    @given(
        salt=_u64,
        flow_id=_u64,
        flowlet_id=st.integers(min_value=0, max_value=1 << 32),
        num_paths=st.integers(min_value=1, max_value=1024),
    )
    def test_path_is_a_pure_in_range_function(
        self, salt, flow_id, flowlet_id, num_paths
    ):
        path = ecmp_path(salt, flow_id, flowlet_id, num_paths)
        assert path == ecmp_path(salt, flow_id, flowlet_id, num_paths)
        assert 0 <= path < num_paths

    @settings(max_examples=50, deadline=None)
    @given(salt=st.integers(min_value=0, max_value=1 << 32))
    def test_fresh_fabrics_with_the_same_salt_agree(self, salt):
        # Two fabric instances (e.g. two worker processes) must route
        # identically — no per-instance or per-process hash state.
        a = FlowletEcmpFabric(_racks(4, 2), flowlet_gap_s=None, salt=salt)
        b = FlowletEcmpFabric(_racks(4, 2), flowlet_gap_s=None, salt=salt)
        for flow_id in range(30):
            request = _FakeRequest(flow_id, 0.0)
            assert a.select(request, ()).server_id == b.select(request, ()).server_id


# ----------------------------------------------------------------------
# Per-level power bit-identity
# ----------------------------------------------------------------------

_powers = st.lists(
    st.floats(
        min_value=0.0,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=16,
    max_size=16,
)


class TestPerLevelPowerIdentity:
    @settings(max_examples=100, deadline=None)
    @given(powers_w=_powers)
    def test_node_power_is_bitwise_leaf_sum(self, powers_w):
        topology = PowerTopology(
            TopologySpec(
                name="prop-tree", rows=2, racks_per_row=2, servers_per_rack=4
            ),
            server_nameplate_w=100.0,
            budget_fraction=0.8,
        )
        rack = _StubRack(powers_w)
        per_node = topology.per_node_power(rack)
        for name, node in topology.nodes.items():
            expected = 0.0
            for value in powers_w[node.start : node.stop]:
                expected += value
            assert per_node[name] == expected  # bitwise
            assert topology.node_power_w(name, rack) == expected
        # The feed covers every leaf in the same order as the flat
        # rack total: one reduction order everywhere.
        full_sum = 0.0
        for value in powers_w:
            full_sum += value
        assert per_node["feed"] == full_sum
