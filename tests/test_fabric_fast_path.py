"""The fabric's direct rack indexing picks exactly what the member scan picks.

:meth:`FlowletEcmpFabric.select` indexes rack *k*'s run of a whole,
rack-ordered fleet instead of scanning every server for the rack's
members.  :class:`ScanFabric` below keeps the scan: it re-derives each
flowlet's path with :func:`ecmp_path`, lists the hashed rack's members
from the whole list, probes successor racks when the rack is empty and
rotates round-robin within the rack.  Over random flows, arrival
times, flowlet gaps and fleets — whole, one rack down, with servers
from outside the fabric's range, and both at once — the two must pick
the same server for every request and leave the same counter table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import FlowletEcmpFabric, ecmp_path
from repro.obs import Counters, Recorder


class _Server:
    def __init__(self, server_id: int) -> None:
        self.server_id = server_id


class _Request:
    def __init__(self, source_id: int, arrival_time_s: float) -> None:
        self.source_id = source_id
        self.arrival_time_s = arrival_time_s


class ScanFabric:
    """Reference: flowlet ECMP with the per-request rack-member scan."""

    def __init__(self, num_racks, servers_per_rack, num_spines, gap_s, salt):
        self.num_racks = num_racks
        self.servers_per_rack = servers_per_rack
        self.num_paths = num_racks * num_spines
        self.gap_s = gap_s
        self.salt = salt
        self.flows = {}  # flow id -> [last seen, flowlet id, path]
        self.rack_rr = [0] * num_racks
        self.counters = Counters()

    def members(self, rack_idx, servers):
        per_rack = self.servers_per_rack
        return [s for s in servers if s.server_id // per_rack == rack_idx]

    def select(self, flow_id, now_s, servers):
        counters = self.counters
        state = self.flows.get(flow_id)
        if state is None:
            path = ecmp_path(self.salt, flow_id, 0, self.num_paths)
            state = self.flows[flow_id] = [now_s, 0, path]
            counters.inc("fabric.flows")
            counters.inc("fabric.flowlets")
        else:
            if self.gap_s is not None and now_s - state[0] > self.gap_s:
                state[1] += 1
                path = ecmp_path(self.salt, flow_id, state[1], self.num_paths)
                counters.inc("fabric.flowlets")
                if path != state[2]:
                    counters.inc("fabric.path_switches")
                state[2] = path
            state[0] = now_s
        rack_idx = state[2] % self.num_racks
        candidates = self.members(rack_idx, servers)
        if not candidates:
            for offset in range(1, self.num_racks):
                probe_idx = (rack_idx + offset) % self.num_racks
                candidates = self.members(probe_idx, servers)
                if candidates:
                    counters.inc("fabric.failovers")
                    rack_idx = probe_idx
                    break
        if not candidates:
            candidates = list(servers)
        slot = self.rack_rr[rack_idx] % len(candidates)
        self.rack_rr[rack_idx] = slot + 1
        counters.inc(f"fabric.forwarded.rack{rack_idx}")
        return candidates[slot]


#: Fleet shapes: the whole fleet, one rack down, the whole fleet plus
#: outsiders, and one rack down plus outsiders (as many outsiders as a
#: rack holds, so the list is exactly as long as the whole fleet).
FLEETS = ("whole", "rack_down", "outsiders", "rack_down_outsiders")


def _fleet(kind, num_racks, per_rack, down_rack):
    size = num_racks * per_rack
    ids = list(range(size))
    if kind in ("rack_down", "rack_down_outsiders") and num_racks > 1:
        ids = [i for i in ids if i // per_rack != down_rack % num_racks]
    if kind in ("outsiders", "rack_down_outsiders"):
        ids += list(range(size, size + per_rack))
    return [_Server(i) for i in ids]


@settings(max_examples=150, deadline=None)
@given(
    salt=st.integers(min_value=0, max_value=2**64 + 5),
    num_racks=st.integers(min_value=1, max_value=5),
    per_rack=st.integers(min_value=1, max_value=4),
    num_spines=st.integers(min_value=1, max_value=3),
    gap_s=st.one_of(st.none(), st.sampled_from([0.01, 0.05, 1.0])),
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            st.sampled_from(FLEETS),
            st.integers(min_value=0, max_value=4),
        ),
        max_size=60,
    ),
)
def test_select_matches_the_member_scan(
    salt, num_racks, per_rack, num_spines, gap_s, arrivals
):
    recorder = Recorder()
    fabric = FlowletEcmpFabric(
        num_racks,
        per_rack,
        num_spines=num_spines,
        flowlet_gap_s=gap_s,
        salt=salt,
        obs=recorder,
    )
    reference = ScanFabric(num_racks, per_rack, num_spines, gap_s, salt)
    now_s = 0.0
    for flow_id, step_s, kind, down_rack in arrivals:
        now_s += step_s
        servers = _fleet(kind, num_racks, per_rack, down_rack)
        chosen = fabric.select(_Request(flow_id, now_s), servers)
        expected = reference.select(flow_id, now_s, servers)
        assert chosen is expected
    assert recorder.counters.as_dict() == reference.counters.as_dict()


def test_whole_fleet_rotates_within_each_rack():
    # A long single-fleet run: every pick is the scan's, rack by rack.
    recorder = Recorder()
    fabric = FlowletEcmpFabric(4, 4, flowlet_gap_s=0.05, salt=7, obs=recorder)
    reference = ScanFabric(4, 4, 2, 0.05, 7)
    servers = [_Server(i) for i in range(16)]
    for i in range(4000):
        flow_id, now_s = i % 37, 0.013 * i
        chosen = fabric.select(_Request(flow_id, now_s), servers)
        assert chosen is reference.select(flow_id, now_s, servers)
    assert recorder.counters.as_dict() == reference.counters.as_dict()
