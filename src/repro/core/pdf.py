"""PDF — power-driven forwarding (Anti-DOPE step 1, Section 5.1).

PDF lives on the network load balancer.  For every incoming request the
HTTP-process module classifies the access URL against the offline
suspect list, and the URL-based forwarding module redirects suspects to
a dedicated *suspect pool* of backend servers while innocent requests
keep the full remaining pool.  The isolation is what lets step 2 (RPM)
throttle power attacks without collateral damage: when DVFS has to
bite, it bites servers that mostly hold high-power (probably hostile)
requests.

:class:`PDFPolicy` implements the NLB :class:`ForwardingPolicy`
interface, so Anti-DOPE drops into the ingress pipeline exactly where a
round-robin policy would sit — "minute system modification".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .._validation import check_int, require
from ..cluster.server import Server
from ..network.load_balancer import RoundRobinPolicy
from ..network.pool import ServerPool
from ..network.request import Request
from ..obs import Recorder
from .suspect_list import SuspectList

__all__ = [
    "split_pools",
    "SuspectPoolPolicy",
    "PDFPolicy",
]


def split_pools(
    servers: Sequence[Server], suspect_pool_size: int
) -> tuple:
    """Partition *servers* into (innocent_pool, suspect_pool).

    The *last* ``suspect_pool_size`` servers in rack order form the
    suspect pool; a stable, position-based carve-out so that the power
    manager and the forwarder always agree on which nodes are isolated.
    """
    check_int("suspect_pool_size", suspect_pool_size, minimum=1)
    require(
        suspect_pool_size < len(servers),
        f"suspect pool ({suspect_pool_size}) must leave at least one "
        f"innocent server out of {len(servers)}",
    )
    cut = len(servers) - suspect_pool_size
    return list(servers[:cut]), list(servers[cut:])


class SuspectPoolPolicy:
    """Two-pool forwarding: the isolation half every suspect-pool defence
    shares.

    Holds the innocent/suspect server carve as two server pools
    (:class:`~repro.network.pool.ServerPool`), one round-robin rotation
    per pool and the failover rule.  Subclasses classify the request in
    their own ``select`` and name the counter bumped on failover.
    """

    #: Counter bumped when a whole preferred pool is down (per subclass).
    failover_counter: str

    def __init__(
        self,
        innocent_pool: Sequence[Server],
        suspect_pool: Sequence[Server],
        obs: Optional[Recorder] = None,
    ) -> None:
        require(len(innocent_pool) > 0, "innocent pool must be non-empty")
        require(len(suspect_pool) > 0, "suspect pool must be non-empty")
        self.innocent_pool = ServerPool(innocent_pool)
        self.suspect_pool = ServerPool(suspect_pool)
        self._innocent_rr = RoundRobinPolicy()
        self._suspect_rr = RoundRobinPolicy()
        self._counters = (obs if obs is not None else Recorder()).counters

    def _alive(self, preferred: ServerPool, fallback: ServerPool) -> List[Server]:
        """*preferred*'s healthy members, else failover to *fallback*'s:
        isolation is worth less than availability.  The NLB's retry path
        handles a fully-dead rack before the policy sees the request."""
        alive = preferred.alive
        if alive:
            return alive
        self._counters.inc(self.failover_counter)
        return fallback.alive

    @property
    def suspect_server_ids(self) -> List[int]:
        """Rack ids of the isolated pool (the RPM throttle targets)."""
        return [s.server_id for s in self.suspect_pool.members]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(suspect_pool={self.suspect_server_ids})"


class PDFPolicy(SuspectPoolPolicy):
    """Suspect-aware forwarding policy.

    Parameters
    ----------
    suspect_list:
        Offline URL classification.
    servers:
        Full backend pool in rack order.
    suspect_pool_size:
        Number of servers isolated for suspect traffic (paper's mini
        rack isolates 1 of 4 by default).
    obs:
        Observation context recording per-decision counters; defaults
        to a private recorder (Anti-DOPE passes the engine's at bind).
    """

    failover_counter = "network.pdf_failover_forwarded"

    def __init__(
        self,
        suspect_list: SuspectList,
        servers: Sequence[Server],
        suspect_pool_size: int = 1,
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(*split_pools(servers, suspect_pool_size), obs=obs)
        self.suspect_list = suspect_list
        # The list is fixed once built, so the per-request check is one
        # set lookup on the type's URL (the same verdict as
        # ``suspect_list.is_suspect``: unprofiled URLs are innocent).
        self._suspect_urls = frozenset(suspect_list.suspect_urls)
        self._suspect_cell = self._counters.cell("network.pdf_suspect_forwarded")
        self._innocent_cell = self._counters.cell(
            "network.pdf_innocent_forwarded"
        )

    def select(self, request: Request, servers: Sequence[Server]) -> Server:
        """Route by suspect-list classification of the request URL.

        The *servers* argument (the NLB rotation's alive list) is ignored
        in favour of the pools fixed at construction: the carve-out must
        stay consistent with the power manager's view.
        """
        if request.rtype.url in self._suspect_urls:
            pool = self._alive(self.suspect_pool, self.innocent_pool)
            self._suspect_cell[0] += 1
            return self._suspect_rr.select(request, pool)
        pool = self._alive(self.innocent_pool, self.suspect_pool)
        self._innocent_cell[0] += 1
        return self._innocent_rr.select(request, pool)
