"""Request objects and completion records.

A :class:`Request` is a single HTTP query travelling through the
simulated stack: ingress (firewall) → load balancer → server queue →
worker → completion.  The metrics layer stores every terminal outcome
as one row of typed columns, not as an object, because a trace-driven
run produces millions of them; a :class:`CompletionRecord` is the row
type it hands back when a caller asks for rows.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from ..workloads.catalog import RequestType, TrafficClass

__all__ = [
    "RequestOutcome",
    "FAULT_OUTCOMES",
    "POLICY_OUTCOMES",
    "Request",
    "CompletionRecord",
]

_request_ids = itertools.count()


class RequestOutcome(enum.Enum):
    """Terminal state of a request."""

    COMPLETED = "completed"
    DROPPED_FIREWALL = "dropped_firewall"
    DROPPED_TOKEN = "dropped_token"
    DROPPED_QUEUE_FULL = "dropped_queue_full"
    TIMED_OUT = "timed_out"
    #: In-service work lost to a server crash (fault-induced).
    FAILED_SERVER = "failed_server"
    #: No healthy backend remained after the NLB's retry budget (fault-induced).
    DROPPED_NO_BACKEND = "dropped_no_backend"


#: Outcomes caused by injected infrastructure faults rather than policy
#: decisions — the metrics layer attributes these separately so that
#: availability curves under chaos scenarios stay honest.
FAULT_OUTCOMES = frozenset(
    {RequestOutcome.FAILED_SERVER, RequestOutcome.DROPPED_NO_BACKEND}
)

#: Outcomes the *scheme* chose: firewall verdicts, token refusals,
#: queue admission control, SLA timeouts.  Together with
#: :data:`FAULT_OUTCOMES` this partitions every non-completed outcome —
#: the REP012 contract rule statically rejects any new enum member that
#: joins neither set, so drop attribution stays total by construction.
POLICY_OUTCOMES = frozenset(
    {
        RequestOutcome.DROPPED_FIREWALL,
        RequestOutcome.DROPPED_TOKEN,
        RequestOutcome.DROPPED_QUEUE_FULL,
        RequestOutcome.TIMED_OUT,
    }
)


class Request:
    """One in-flight HTTP request.

    Attributes
    ----------
    rtype:
        Catalog profile of the requested service (determines service
        demand and power).
    source_id:
        Identity of the sending agent — the key the firewall rate-limits
        on.
    traffic_class:
        Whether a legitimate user or an attacker generated the request.
    arrival_time_s:
        Simulation time at which the request hit the data-center ingress.
    """

    __slots__ = (
        "request_id",
        "rtype",
        "source_id",
        "traffic_class",
        "arrival_time_s",
        "start_service_time_s",
        "remaining_work",
        "server_id",
        "retries",
        "on_terminal",
    )

    def __init__(
        self,
        rtype: RequestType,
        source_id: int,
        traffic_class: TrafficClass,
        arrival_time_s: float,
        request_id: Optional[int] = None,
    ) -> None:
        # Generators pass an engine-scoped serial so that same-seed runs
        # number requests identically; the process-global fallback only
        # serves ad-hoc construction (unit tests, examples).
        self.request_id = (
            request_id if request_id is not None else next(_request_ids)
        )
        self.rtype = rtype
        self.source_id = source_id
        self.traffic_class = traffic_class
        self.arrival_time_s = arrival_time_s
        # Set when a worker picks the request up:
        self.start_service_time_s: Optional[float] = None
        # Work is expressed in "seconds of service at f_max"; the server
        # drains it at its current speedup so DVFS changes mid-service
        # stretch the in-flight requests correctly.
        self.remaining_work: float = 0.0
        self.server_id: Optional[int] = None
        # NLB re-dispatch attempts consumed (crash re-route path).
        self.retries: int = 0
        # Optional callback fired once at the request's terminal event
        # (completion or any drop).  Closed-loop clients use it to learn
        # when to issue their next request.
        self.on_terminal = None

    @property
    def url(self) -> str:
        """URL of the requested service — the NLB's routing key."""
        return self.rtype.url

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(#{self.request_id}, {self.rtype.name}, "
            f"{self.traffic_class.value}, t={self.arrival_time_s:.3f})"
        )


class CompletionRecord:
    """Flat terminal record of one request: one row of the metrics ledger.

    The collector keeps its rows as columns and builds these objects
    only on request (export, timelines, availability, tests).  A record
    normally stands for exactly one request (``weight == 1``).
    The fluid execution mode additionally emits *aggregate* records
    (:meth:`aggregate`) standing for a whole analytically integrated
    cohort — same shape, ``weight == n``, no materialised request id.
    Metrics that count requests sum weights; latency statistics are
    untouched because aggregate records only ever describe drops.
    """

    __slots__ = (
        "request_id",
        "type_name",
        "traffic_class",
        "outcome",
        "arrival_time_s",
        "finish_time_s",
        "server_id",
        "weight",
    )

    def __init__(
        self,
        request: Request,
        outcome: RequestOutcome,
        finish_time_s: float,
    ) -> None:
        self.request_id = request.request_id
        self.type_name = request.rtype.name
        self.traffic_class = request.traffic_class
        self.outcome = outcome
        self.arrival_time_s = request.arrival_time_s
        self.finish_time_s = finish_time_s
        self.server_id = request.server_id
        self.weight = 1

    @classmethod
    def aggregate(
        cls,
        count: int,
        type_name: str,
        traffic_class: TrafficClass,
        outcome: RequestOutcome,
        time_s: float,
    ) -> "CompletionRecord":
        """Record standing for *count* identical requests at once.

        Aggregate records carry ``request_id = -1``: the requests they
        stand for were absorbed by a fluid segment and their per-request
        ids were never materialised (the lazy-id contract — ids exist
        only where outcomes diverge, and inside an aggregate they
        provably do not).
        """
        if count < 1:
            raise ValueError(f"aggregate count must be >= 1, got {count}")
        return cls.from_fields(
            -1, type_name, traffic_class, outcome, time_s, time_s, None, int(count)
        )

    @classmethod
    def from_fields(
        cls,
        request_id: int,
        type_name: str,
        traffic_class: TrafficClass,
        outcome: RequestOutcome,
        arrival_time_s: float,
        finish_time_s: float,
        server_id: Optional[int],
        weight: int,
    ) -> "CompletionRecord":
        """Record with every field given, as the metrics columns store it."""
        record = cls.__new__(cls)
        record.request_id = request_id
        record.type_name = type_name
        record.traffic_class = traffic_class
        record.outcome = outcome
        record.arrival_time_s = arrival_time_s
        record.finish_time_s = finish_time_s
        record.server_id = server_id
        record.weight = weight
        return record

    @property
    def response_time(self) -> float:
        """End-to-end sojourn time (seconds); meaningful when completed."""
        return self.finish_time_s - self.arrival_time_s

    @property
    def completed(self) -> bool:
        """True when the request was served to completion."""
        return self.outcome is RequestOutcome.COMPLETED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompletionRecord(#{self.request_id}, {self.type_name}, "
            f"{self.outcome.value}, rt={self.response_time * 1e3:.1f}ms)"
        )
