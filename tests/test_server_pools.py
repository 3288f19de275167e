"""Server pools pick exactly what per-request health scans picked.

The NLB rotation, the fabric's racks and the suspect-pool carve each
hold their healthy members as :class:`~repro.network.pool.ServerPool`
state, refreshed only when ``Server.fail``, ``recover`` or
``set_powered`` flips a server's health.  Before that, each reader
re-derived health on every request.  This module keeps those scans as
the reference:

* :class:`ScanNLB` scans its backend list and passes the healthy ones
  to the policy, retrying or dropping when none is left;
* :class:`ScanPDF` and :class:`ScanDetector` scan the preferred pool
  and fail over to the other pool's healthy members;
* :class:`ScanFabric` lists the hashed rack's members out of the list
  the NLB passes, probes the following racks when the rack is empty
  and rotates round-robin within the rack.

Two worlds with identical servers run in lockstep: one on the pools,
one on the scans.  Random interleavings of arrivals with crashes (whose
queued requests are shed back to the NLB), recoveries, power switches,
whole-rack, whole-pool and whole-fleet outages and rotation changes
must give the same pick for every request, the same terminal record
for every request and the same counter table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    PowerTopology,
    Rack,
    ServerPowerModel,
    named_topology,
)
from repro.core import PDFPolicy, SuspectList, split_pools
from repro.detect import DynamicSuspectPolicy, StreamingFeatureExtractor
from repro.network import (
    FlowletEcmpFabric,
    NetworkLoadBalancer,
    Request,
    RequestOutcome,
    RetryPolicy,
    RoundRobinPolicy,
    ecmp_path,
)
from repro.sim.engine import EventEngine
from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    TrafficClass,
)

TYPES = (COLLA_FILT, K_MEANS, TEXT_CONT)

#: Sources the detector case quarantines.
QUARANTINED = frozenset({0, 1, 2})

TREE = PowerTopology(
    named_topology("tree-dc"), server_nameplate_w=100.0, budget_fraction=1.0
)
TREE_RACKS = [
    list(range(node.start, node.stop))
    for node in TREE.nodes.values()
    if node.kind == "rack"
]
#: The detector's row carve on tree-dc: the last server of every row.
ROW_SUSPECTS = sorted(
    node.stop - 1 for node in TREE.nodes.values() if node.kind == "row"
)


# ----------------------------------------------------------------------
# The reference: per-request health scans
# ----------------------------------------------------------------------
class ScanNLB(NetworkLoadBalancer):
    """The balancer that scans its backend list on every request."""

    def __init__(self, servers, **kwargs):
        super().__init__(servers, **kwargs)
        self.backends = list(servers)

    def _forward(self, request, now):
        healthy = self.backends
        for server in healthy:
            if not server.healthy:
                healthy = [s for s in healthy if s.healthy]
                if not healthy:
                    return self._retry_or_drop(request, now)
                break
        server = self.policy.select(request, healthy)
        if not server.submit(request):
            self._drop(request, RequestOutcome.DROPPED_QUEUE_FULL, now)
            return False
        self.forwarded += 1
        self._forwarded_cell[0] += 1
        return True


class _ScanPools:
    """Suspect-pool failover that scans the pool members per request."""

    def _alive(self, preferred, fallback):
        members = preferred.members
        for server in members:
            if not server.healthy:
                break
        else:
            return members
        alive = [s for s in members if s.healthy]
        if alive:
            return alive
        self._counters.inc(self.failover_counter)
        return [s for s in fallback.members if s.healthy]


class ScanPDF(_ScanPools, PDFPolicy):
    pass


class ScanDetector(_ScanPools, DynamicSuspectPolicy):
    pass


class ScanFabric:
    """Flowlet ECMP with the per-request rack-member scan."""

    def __init__(self, num_racks, servers_per_rack, num_spines, gap_s, salt, counters):
        self.num_racks = num_racks
        self.servers_per_rack = servers_per_rack
        self.num_paths = num_racks * num_spines
        self.gap_s = gap_s
        self.salt = salt
        self.flows = {}  # flow id -> [last seen, flowlet id, path]
        self.rack_rr = [0] * num_racks
        self.counters = counters

    def members(self, rack_idx, servers):
        per_rack = self.servers_per_rack
        return [s for s in servers if s.server_id // per_rack == rack_idx]

    def select(self, request, servers):
        flow_id, now_s = request.source_id, request.arrival_time_s
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


# ----------------------------------------------------------------------
# Two worlds in lockstep
# ----------------------------------------------------------------------
class _Logged:
    """Forwarding-policy proxy recording every pick."""

    def __init__(self, policy, picks):
        self.policy = policy
        self.picks = picks

    def select(self, request, servers):
        server = self.policy.select(request, servers)
        self.picks.append((request.request_id, server.server_id))
        return server


#: case -> (fleet size, outage groups besides the whole fleet).
CASES = {
    "round-robin": (4, [[0, 1], [2, 3]]),
    "pdf": (4, [[0, 1, 2], [3]]),
    "detect-dc": (4, [[0, 1, 2], [3]]),
    "detect-row": (16, [[i for i in range(16) if i not in ROW_SUSPECTS], ROW_SUSPECTS]),
    "fabric": (16, TREE_RACKS),
}


class World:
    """One fleet, balancer and policy; *scan* picks the reference."""

    def __init__(self, case, scan, salt):
        self.engine = engine = EventEngine()
        self.records = []
        self.picks = []
        rack = Rack(
            engine,
            num_servers=CASES[case][0],
            rng=np.random.default_rng(salt),
            power_model=ServerPowerModel(num_workers=2),
            queue_capacity=6,
            completion_sink=self._sink,
        )
        self.servers = servers = rack.servers
        obs = engine.obs
        if case == "round-robin":
            policy = RoundRobinPolicy()
        elif case == "pdf":
            make = ScanPDF if scan else PDFPolicy
            policy = make(
                SuspectList.from_model(ALL_TYPES, rack.power_model),
                servers,
                1,
                obs=obs,
            )
        elif case.startswith("detect"):
            if case == "detect-dc":
                innocent, suspect = split_pools(servers, 1)
            else:
                suspect = [servers[i] for i in ROW_SUSPECTS]
                innocent = [s for s in servers if s not in suspect]
            make = ScanDetector if scan else DynamicSuspectPolicy
            policy = make(
                StreamingFeatureExtractor(ALL_TYPES),
                innocent,
                suspect,
                engine.clock,
                obs=obs,
            )
            policy.set_suspects(QUARANTINED)
        elif scan:
            policy = ScanFabric(4, 4, 2, 0.05, salt, obs.counters)
        else:
            policy = FlowletEcmpFabric(
                [[servers[i] for i in rack_ids] for rack_ids in TREE_RACKS],
                num_spines=2,
                flowlet_gap_s=0.05,
                salt=salt,
                obs=obs,
            )
        make_nlb = ScanNLB if scan else NetworkLoadBalancer
        self.nlb = make_nlb(
            servers,
            policy=_Logged(policy, self.picks),
            drop_sink=self._sink,
            now=lambda: engine.now,
            obs=obs,
            retry_policy=RetryPolicy(),
            scheduler=engine.schedule,
        )
        self.scan = scan

    def _sink(self, request, outcome, now):
        self.records.append((request.request_id, outcome.name, request.server_id, now))

    def set_rotation(self, ids):
        backends = [self.servers[i] for i in ids]
        if self.scan:
            self.nlb.backends = backends
        else:
            self.nlb.rotation.assign(backends)


def _apply(world, op, next_id):
    kind = op[0]
    servers = world.servers
    if kind == "arrive":
        for offset, (source, type_idx) in enumerate(op[1]):
            world.nlb.dispatch(
                Request(
                    TYPES[type_idx],
                    source,
                    TrafficClass.NORMAL,
                    world.engine.now,
                    next_id + offset,
                )
            )
    elif kind == "advance":
        world.engine.run(until=world.engine.now + op[1])
    elif kind == "fail":
        for i in op[1]:
            servers[i].fail(shed_sink=world.nlb.reroute)
    elif kind == "recover":
        for i in op[1]:
            servers[i].recover()
    elif kind == "power":
        server = servers[op[1]]
        if op[2] or server.in_system == 0:
            server.set_powered(op[2])
    elif kind == "rotation":
        world.set_rotation(op[1])


def _ops(case):
    """State changes, each followed by a burst of arrivals."""
    size, groups = CASES[case]
    index = st.integers(min_value=0, max_value=size - 1)
    # Any union of outage groups: one rack or pool, several, or all.
    outages = st.lists(st.sampled_from(groups), min_size=1).map(
        lambda picked: sorted({i for group in picked for i in group})
    )
    events = [
        st.tuples(st.just("advance"), st.sampled_from([0.01, 0.04, 0.3, 1.5])),
        st.tuples(st.just("fail"), index.map(lambda i: [i])),
        st.tuples(st.just("fail"), outages),
        st.tuples(st.just("recover"), index.map(lambda i: [i])),
        st.tuples(st.just("recover"), outages),
        st.tuples(st.just("power"), index, st.booleans()),
    ]
    if case == "round-robin":
        events.append(
            st.tuples(
                st.just("rotation"),
                st.lists(index, min_size=1, max_size=size, unique=True).map(sorted),
            )
        )
    burst = st.tuples(
        st.just("arrive"),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=len(TYPES) - 1),
            ),
            min_size=4,
            max_size=24,
        ),
    )
    return st.lists(st.tuples(st.one_of(events), burst), min_size=4, max_size=30).map(
        lambda steps: [op for step in steps for op in step]
    )


def _run_lockstep(case, salt, ops):
    pools, scans = World(case, False, salt), World(case, True, salt)
    next_id = 0
    for op in ops:
        for world in (pools, scans):
            _apply(world, op, next_id)
        if op[0] == "arrive":
            next_id += len(op[1])
        assert pools.picks == scans.picks
        assert [s.healthy for s in pools.servers] == [s.healthy for s in scans.servers]
    for world in (pools, scans):
        _apply(world, ("recover", range(len(world.servers))), next_id)
        _apply(world, ("advance", 30.0), next_id)
    assert pools.picks == scans.picks
    assert pools.records == scans.records
    assert pools.engine.obs.counters.as_dict() == scans.engine.obs.counters.as_dict()
    return pools


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), salt=st.integers(min_value=0, max_value=2**32))
def test_pools_pick_what_the_scans_picked(case, data, salt):
    _run_lockstep(case, salt, data.draw(_ops(case), label="ops"))


@pytest.mark.parametrize("case", list(CASES))
def test_scripted_outages_cover_every_path(case):
    # One outage of each kind, with queues built up at every crash:
    # each group down and back, the whole fleet down (the retry path)
    # and back, and single crashes, each followed by arrivals.
    size, groups = CASES[case]
    burst = ("arrive", [(i % 12, i % len(TYPES)) for i in range(24)])
    ops = [burst]
    for group in groups + [list(range(size))]:
        ops += [burst, ("fail", group), burst, ("advance", 0.04), burst]
        ops += [("recover", group), burst, ("advance", 0.3)]
    ops += [burst, ("fail", [0]), burst, ("fail", [size - 1]), burst]
    ops += [("power", 1, False), ("advance", 1.5), ("power", 1, False), burst]
    ops += [("power", 1, True), ("recover", [0, size - 1]), burst]
    if case == "round-robin":
        ops += [("rotation", [1, 3]), burst, ("fail", [3]), burst]
        ops += [("rotation", [0, 1, 2, 3]), burst]
    pools = _run_lockstep(case, 7, ops)
    counters = pools.engine.obs.counters.as_dict()
    assert counters["cluster.requests_shed_to_nlb"] > 0
    assert counters["network.nlb_retries"] > 0
    if case == "fabric":
        assert counters["fabric.failovers"] > 0
    elif case != "round-robin":
        failover = "network.pdf_" if case == "pdf" else "detect."
        assert counters[failover + "failover_forwarded"] > 0


def test_whole_fleet_rotates_within_each_rack():
    # A long healthy run on tree-dc: every pick is the scan's, rack by rack.
    arrivals = [(i % 37, 0) for i in range(4000)]
    ops = [("arrive", arrivals[i : i + 8]) for i in range(0, 4000, 8)]
    ops = [op for pair in zip(ops, [("advance", 0.013 * 8)] * len(ops)) for op in pair]
    _run_lockstep("fabric", 7, ops)
