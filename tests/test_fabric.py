"""Unit coverage of flowlet-aware ECMP forwarding (repro.network.fabric).

The fabric reads its racks' ``alive`` lists and never the list the NLB
passes, so every pick below is made with an empty one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Rack
from repro.network import FlowletEcmpFabric, ecmp_path, splitmix64
from repro.obs import Recorder
from repro.sim.engine import EventEngine


class _FakeRequest:
    def __init__(self, source_id: int, arrival_time_s: float) -> None:
        self.source_id = source_id
        self.arrival_time_s = arrival_time_s


def _racks(num_racks=4, servers_per_rack=4):
    """Rack slices of real servers; server *s* lives in rack s // per."""
    servers = Rack(EventEngine(), num_servers=num_racks * servers_per_rack).servers
    return [
        servers[k * servers_per_rack : (k + 1) * servers_per_rack]
        for k in range(num_racks)
    ]


def _fabric(obs=None, num_racks=4, servers_per_rack=4, **kwargs):
    return FlowletEcmpFabric(_racks(num_racks, servers_per_rack), obs=obs, **kwargs)


def _pick(fabric, flow, now_s):
    return fabric.select(_FakeRequest(flow, now_s), ())


# ----------------------------------------------------------------------
# Hashing
# ----------------------------------------------------------------------


def test_splitmix64_matches_the_reference_vector():
    # First output of the reference SplitMix64 stream seeded with 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64((1 << 64) - 1) != splitmix64(0)
    assert 0 <= splitmix64(123456789) < (1 << 64)


def test_ecmp_path_is_deterministic_and_in_range():
    for salt in (0, 7, 2**63):
        for flow in (0, 1, 999):
            for flowlet in (0, 1, 2):
                a = ecmp_path(salt, flow, flowlet, 8)
                b = ecmp_path(salt, flow, flowlet, 8)
                assert a == b
                assert 0 <= a < 8


def test_ecmp_path_decorrelates_across_salts():
    paths_a = [ecmp_path(1, flow, 0, 64) for flow in range(200)]
    paths_b = [ecmp_path(2, flow, 0, 64) for flow in range(200)]
    assert paths_a != paths_b


def test_ecmp_path_rejects_empty_path_space():
    with pytest.raises(ValueError):
        ecmp_path(0, 0, 0, 0)


@settings(max_examples=100, deadline=None)
@given(
    salt=st.integers(min_value=0, max_value=2**64 + 5),
    num_racks=st.integers(min_value=1, max_value=5),
    num_spines=st.integers(min_value=1, max_value=3),
    gap_s=st.one_of(st.none(), st.sampled_from([0.01, 0.05, 1.0])),
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=-(2**65), max_value=2**65),
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        ),
        max_size=40,
    ),
)
def test_cached_flow_hash_follows_ecmp_path(
    salt, num_racks, num_spines, gap_s, arrivals
):
    # select() keeps each flow's salted hash instead of recomputing it;
    # the rack it lands in must still be ecmp_path's, flowlet by flowlet.
    fabric = _fabric(
        num_racks=num_racks,
        servers_per_rack=2,
        num_spines=num_spines,
        flowlet_gap_s=gap_s,
        salt=salt,
    )
    now_s = 0.0
    last_seen = {}
    flowlet = {}
    for flow, step_s in arrivals:
        now_s += step_s
        chosen = _pick(fabric, flow, now_s)
        if flow not in flowlet:
            flowlet[flow] = 0
        elif gap_s is not None and now_s - last_seen[flow] > gap_s:
            flowlet[flow] += 1
        last_seen[flow] = now_s
        path = ecmp_path(salt, flow, flowlet[flow], num_spines * num_racks)
        assert chosen.server_id // 2 == path % num_racks


# ----------------------------------------------------------------------
# Flow pinning vs flowlet switching
# ----------------------------------------------------------------------


def test_pinned_flow_always_lands_in_its_hashed_rack():
    fabric = _fabric(flowlet_gap_s=None, salt=3)
    rack = _pick(fabric, 42, 0.0).server_id // 4
    assert rack == ecmp_path(3, 42, 0, 8) % 4
    # Long gaps between requests: a pinned flow must never re-hash.
    for step in range(1, 50):
        assert _pick(fabric, 42, step * 10.0).server_id // 4 == rack


def test_flowlet_gap_allows_rehash_and_counts_switches():
    obs = Recorder()
    fabric = _fabric(obs=obs, flowlet_gap_s=0.05, salt=0)
    # Bursts separated by 10x the flowlet gap: each burst may re-hash.
    for flow in range(8):
        for burst in range(20):
            _pick(fabric, flow, burst * 0.5)
    counters = obs.counters
    assert counters.get("fabric.flows") == 8
    # Every burst after the first opens a new flowlet per flow.
    assert counters.get("fabric.flowlets") == 8 * 20
    # With 8 paths, re-hashes land on a different path most of the time.
    assert counters.get("fabric.path_switches") > 0


def test_requests_within_the_gap_do_not_open_flowlets():
    obs = Recorder()
    fabric = _fabric(obs=obs, flowlet_gap_s=0.05)
    for i in range(100):
        _pick(fabric, 7, i * 0.01)  # gap 10 ms < 50 ms
    assert obs.counters.get("fabric.flowlets") == 1
    assert obs.counters.get("fabric.path_switches") == 0


def test_round_robin_rotates_within_the_destination_rack():
    fabric = _fabric(flowlet_gap_s=None)
    chosen = [_pick(fabric, 5, i * 0.001).server_id for i in range(8)]
    racks = {s // 4 for s in chosen}
    assert len(racks) == 1
    # Four members, eight picks: each member served exactly twice.
    assert sorted(chosen) == sorted(chosen[:4] * 2)
    assert len(set(chosen[:4])) == 4


# ----------------------------------------------------------------------
# Failover + conservation
# ----------------------------------------------------------------------


def test_failover_probes_the_next_rack_when_hashed_rack_is_down():
    obs = Recorder()
    fabric = _fabric(obs=obs, flowlet_gap_s=None)
    rack = _pick(fabric, 11, 0.0).server_id // 4
    for server in fabric.racks[rack].members:
        server.fail()
    rerouted = _pick(fabric, 11, 1.0)
    assert rerouted.server_id // 4 == (rack + 1) % 4
    assert obs.counters.get("fabric.failovers") == 1
    assert obs.counters.get(f"fabric.forwarded.rack{(rack + 1) % 4}") == 1


def test_every_rack_down_raises():
    # The NLB never calls with nothing alive; a direct caller is told.
    fabric = _fabric(num_racks=2, servers_per_rack=2)
    for pool in fabric.racks:
        for server in pool.members:
            server.fail()
    with pytest.raises(ValueError, match="no healthy server"):
        _pick(fabric, 0, 0.0)


def test_every_select_is_counted_on_exactly_one_rack():
    obs = Recorder()
    fabric = _fabric(obs=obs, flowlet_gap_s=0.05)
    n = 500
    for i in range(n):
        _pick(fabric, i % 13, i * 0.02)
    counters = obs.counters.as_dict()
    forwarded = sum(
        value
        for name, value in counters.items()
        if name.startswith("fabric.forwarded.rack")
    )
    assert forwarded == n


def test_fabric_without_recorder_stays_silent():
    fabric = _fabric(obs=None)
    servers = [s for pool in fabric.racks for s in pool.members]
    for i in range(10):
        assert _pick(fabric, i, i * 0.1) in servers


def test_path_space_and_validation():
    # 3 racks x 4 spines = 12 paths; rack = path mod 3 for every flow.
    fabric = _fabric(num_racks=3, servers_per_rack=2, num_spines=4, salt=5)
    for flow in range(60):
        path = ecmp_path(5, flow, 0, 12)
        assert _pick(fabric, flow, 0.0).server_id // 2 == path % 3
    racks = _racks(2, 2)
    for bad in ([], [racks[0], []]):
        with pytest.raises(ValueError, match="at least one rack"):
            FlowletEcmpFabric(bad)
    with pytest.raises(ValueError):
        FlowletEcmpFabric(racks, flowlet_gap_s=0.0)
    with pytest.raises(ValueError):
        FlowletEcmpFabric(racks, num_spines=0)
