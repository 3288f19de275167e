"""Hybrid fluid mode: analytic integration of provably-steady segments.

The batched engine removes heap round-trips but still pays the full
ingress pipeline per request.  For some segments even that is wasted
work: when every arrival a generator can produce up to a known horizon
*provably* takes the same terminal path, the segment's effect on every
model quantity is a closed-form function of the arrival *count* — the
defining property of a fluid approximation.  The canonical case (and
the only one implemented) is the paper's volume flood after detection:
a DDoS-deflate-style firewall has banned every source in the flood's
pool, so each arrival deterministically ends as ``DROPPED_FIREWALL``
without touching a queue, a server or the power model.

:class:`BannedPoolDrain` is the proof object plus the bulk ledger:

* :meth:`BannedPoolDrain.horizon` returns the time up to which the
  steady-path proof holds (all pool sources banned past ``now``), or
  ``None`` when it does not;
* :meth:`BannedPoolDrain.absorb` applies the aggregate effect of ``n``
  absorbed arrivals — firewall rejection stats, NLB drop tallies and
  per-outcome counters, and one weighted metrics row per request type
  (:meth:`~repro.metrics.collector.MetricsCollector.sink_bulk`).  The
  counts are exactly what ``n`` per-request traversals of the reject
  path would have recorded; the times are not.  Each row carries the
  segment's end as its arrival and finish time, so an arrival-time
  window that cuts a segment counts the segment's whole cohort on the
  side of its end.

Per-request ids are **never materialised** for absorbed arrivals (the
lazy-id contract: ids exist only where outcomes diverge, and inside an
absorbed cohort they provably do not), and the per-arrival interarrival
draws are replaced by one Poisson count draw per segment.  Fluid runs
are therefore statistically faithful rather than byte-identical, which
is why the mode is opt-in (``EventEngine(mode="batched", fluid=True)``)
and excluded from the golden-equivalence contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..network.request import RequestOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..metrics.collector import MetricsCollector
    from ..network.firewall import RateLimitFirewall
    from ..network.load_balancer import NetworkLoadBalancer
    from ..network.sources import SourcePool
    from ..workloads.generator import TrafficGenerator

__all__ = ["BannedPoolDrain"]


class BannedPoolDrain:
    """Fluid absorber for an open-loop pool rejected at the perimeter.

    Parameters
    ----------
    firewall:
        The perimeter defence whose bans constitute the steadiness
        proof.
    source_pool:
        The generator's agent identities.
    nlb:
        Ingress balancer whose drop tallies the absorbed cohort must
        appear in.
    collector:
        Metrics sink receiving one aggregate row per request type.
    """

    __slots__ = (
        "firewall",
        "source_pool",
        "nlb",
        "collector",
        "_source_ids",
    )

    def __init__(
        self,
        firewall: "RateLimitFirewall",
        source_pool: "SourcePool",
        nlb: "NetworkLoadBalancer",
        collector: "MetricsCollector",
    ) -> None:
        self.firewall = firewall
        self.source_pool = source_pool
        self.nlb = nlb
        self.collector = collector
        self._source_ids = tuple(
            range(source_pool.first_id, source_pool.first_id + source_pool.size)
        )

    def horizon(self, now: float) -> Optional[float]:
        """Time up to which every pool arrival is provably rejected.

        ``None`` means the proof fails right now (at least one source
        is admissible) and the caller must stay on the per-request
        path.
        """
        return self.firewall.ban_horizon(self._source_ids, now)

    def absorb(
        self, generator: "TrafficGenerator", count: int, time_s: float
    ) -> None:
        """Apply the bulk effect of *count* absorbed arrivals at *time_s*."""
        if count <= 0:
            return
        self.firewall.record_bulk_rejections(count)
        self.nlb.drop_bulk(count, RequestOutcome.DROPPED_FIREWALL)
        mix = generator.mix
        types = mix.types
        traffic_class = self.source_pool.traffic_class
        if len(types) == 1:
            per_type = [count]
        else:
            per_type = generator.rng.multinomial(count, np.asarray(mix.weights))
        for rtype, n in zip(types, per_type):
            if n:
                self.collector.sink_bulk(
                    int(n),
                    rtype.name,
                    traffic_class,
                    RequestOutcome.DROPPED_FIREWALL,
                    time_s,
                )
