"""ECMP + flowlet forwarding over a small 2-tier fat-tree.

The flat model rotates one NLB across every server; a real facility
hashes each flow onto one of ``num_spines × num_racks`` equal-cost paths
at the fabric edge.  Plain per-flow ECMP *pins* a flow to its hashed
path for life — exactly what a DOPE source wants, because its elephant
flow then concentrates power on one rack PDU.  Flowlet switching breaks
the pin: when a flow pauses for longer than ``flowlet_gap_s`` the next
burst can safely re-hash to a new path without reordering, so sustained
attack flows spread across racks instead of heating one of them.

:class:`FlowletEcmpFabric` is a drop-in
:class:`~repro.network.load_balancer.ForwardingPolicy`: the NLB still
owns ingress (firewall → admission → retry when nothing is alive); the
fabric picks the rack via the path hash and rotates over that rack's
``alive`` list (:class:`~repro.network.pool.ServerPool`), ignoring the
list the NLB passes.  Hashing is a seeded splitmix64 mix —
never Python's per-process-salted ``hash()`` — so path choices are
byte-identical across runs, engines and worker processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .._validation import check_int, check_positive, require
from ..obs import Counters
from .pool import ServerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.server import Server
    from ..obs import Recorder
    from .request import Request

__all__ = [
    "splitmix64",
    "ecmp_path",
    "FlowletEcmpFabric",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 finalisation round: a fast 64-bit avalanche mix."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def ecmp_path(salt: int, flow_id: int, flowlet_id: int, num_paths: int) -> int:
    """Deterministic path index for (*flow*, *flowlet*) under *salt*.

    The salt (the run seed) decorrelates path assignments across runs;
    the flowlet id re-randomises the path at each flowlet boundary.
    """
    check_int("num_paths", num_paths, minimum=1)
    h = splitmix64(splitmix64(salt & _MASK64) ^ (flow_id & _MASK64))
    h = splitmix64(h ^ (flowlet_id & _MASK64))
    return h % num_paths


class _FlowState:
    """Per-flow fabric memory: last burst time, flowlet count, path.

    ``flow_hash`` caches the salted flow hash that :func:`ecmp_path`
    would recompute at every flowlet boundary, so a re-hash costs one
    :func:`splitmix64` round instead of three.
    """

    __slots__ = ("last_seen_s", "flowlet_id", "path", "flow_hash")

    def __init__(self, last_seen_s: float, path: int, flow_hash: int) -> None:
        self.last_seen_s = last_seen_s
        self.flowlet_id = 0
        self.path = path
        self.flow_hash = flow_hash


class FlowletEcmpFabric:
    """NLB forwarding policy hashing flows over a fat-tree's paths.

    Parameters
    ----------
    racks:
        The tree's rack slices, in rack order; each becomes a
        :class:`~repro.network.pool.ServerPool`.
    num_spines:
        Spine count; the path space is ``num_spines × len(racks)``.
    flowlet_gap_s:
        Idle gap after which a flow's next request may re-hash;
        ``None`` pins each flow to its first hashed path forever.
    salt:
        Hash salt (the run seed) for cross-run decorrelation.
    obs:
        Recorder for the ``fabric.*`` counters; ``None`` records
        nothing.
    """

    def __init__(
        self,
        racks: Sequence[Sequence["Server"]],
        num_spines: int = 2,
        flowlet_gap_s: Optional[float] = 0.05,
        salt: int = 0,
        obs: Optional["Recorder"] = None,
    ) -> None:
        require(
            len(racks) > 0 and all(len(rack) > 0 for rack in racks),
            "fabric needs at least one rack, each with a server",
        )
        check_int("num_spines", num_spines, minimum=1)
        if flowlet_gap_s is not None:
            check_positive("flowlet_gap_s", flowlet_gap_s)
        check_int("salt", salt, minimum=0)
        num_racks = len(racks)
        self.racks = [ServerPool(rack) for rack in racks]
        self.num_racks = num_racks
        self.flowlet_gap_s = flowlet_gap_s
        # Without a recorder the tallies go to a private table no one reads.
        counters = obs.counters if obs is not None else Counters()
        self._counters = counters
        self._flows: Dict[int, _FlowState] = {}
        self._rack_rr: List[int] = [0] * num_racks
        self._salt_hash = splitmix64(salt & _MASK64)
        self._num_paths = num_spines * num_racks
        self._flowlets = counters.cell("fabric.flowlets")
        self._path_switches = counters.cell("fabric.path_switches")
        self._forwarded = [
            counters.cell(f"fabric.forwarded.rack{rack_idx}")
            for rack_idx in range(num_racks)
        ]

    # ------------------------------------------------------------------
    # ForwardingPolicy protocol
    # ------------------------------------------------------------------
    def select(
        self, request: "Request", servers: Sequence["Server"]
    ) -> "Server":
        """Pick the backend for *request*; *servers* is not read.

        Resolution order: flowlet-aware path hash → destination rack →
        round-robin over that rack's ``alive`` list.  When the hashed
        rack has no healthy member the fabric probes the following
        racks' lists in order (a failover re-route, counted separately
        so chaos runs can see re-routing happen).  The NLB calls only
        while some server is alive; with every rack down this raises.
        """
        flow_id = request.source_id
        now_s = request.arrival_time_s
        num_racks = self.num_racks
        state = self._flows.get(flow_id)
        if state is None:
            # The ecmp_path hash, with its salted flow stage kept.
            flow_hash = splitmix64(self._salt_hash ^ (flow_id & _MASK64))
            state = _FlowState(
                now_s, splitmix64(flow_hash) % self._num_paths, flow_hash
            )
            self._flows[flow_id] = state
            self._counters.inc("fabric.flows")
            self._flowlets[0] += 1
        else:
            gap_s = self.flowlet_gap_s
            if gap_s is not None and now_s - state.last_seen_s > gap_s:
                state.flowlet_id += 1
                new_path = (
                    splitmix64(state.flow_hash ^ (state.flowlet_id & _MASK64))
                    % self._num_paths
                )
                self._flowlets[0] += 1
                if new_path != state.path:
                    self._path_switches[0] += 1
                state.path = new_path
            state.last_seen_s = now_s
        rack_idx = state.path % num_racks
        racks = self.racks
        alive = racks[rack_idx].alive
        if not alive:
            for offset in range(1, num_racks):
                probe_idx = (rack_idx + offset) % num_racks
                alive = racks[probe_idx].alive
                if alive:
                    self._counters.inc("fabric.failovers")
                    rack_idx = probe_idx
                    break
            else:
                raise ValueError("no healthy server in any rack")
        slot = self._rack_rr[rack_idx] % len(alive)
        self._rack_rr[rack_idx] = slot + 1
        self._forwarded[rack_idx][0] += 1
        return alive[slot]
