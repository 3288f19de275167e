"""Network load balancer (NLB) and forwarding policies.

The NLB is the ingress pipeline of the simulated data center:

``firewall admission → (optional) admission filter → policy → server``

Forwarding policies are pluggable strategy objects; the conventional
round-robin one lives here, while the paper's
power-driven forwarding (PDF) lives in :mod:`repro.core.pdf` and plugs
into the same interface.  Admission filters model NLB-side traffic
shaping — the Token scheme's power token bucket is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence

from .._validation import check_int, check_non_negative, check_positive, require
from ..obs import Recorder
from .firewall import RateLimitFirewall
from .pool import ServerPool
from .request import Request, RequestOutcome

__all__ = [
    "ForwardingPolicy",
    "RoundRobinPolicy",
    "AdmissionFilter",
    "RetryPolicy",
    "NetworkLoadBalancer",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.server import Server

DropSink = Callable[[Request, RequestOutcome, float], None]
#: ``scheduler(delay_s, callback)`` — defer a callback (engine.schedule).
Scheduler = Callable[[float, Callable[[], None]], object]

#: Per-outcome drop-counter names, precomputed so the drop path does no
#: per-request string formatting; each balancer holds one counter cell
#: per name.  The tails match the
#: ``network.nlb_dropped.`` prefix declared in ``repro.obs.contract``.
#: Keyed on the outcome's value string: hashing the member itself runs
#: ``Enum.__hash__`` in Python on every drop.
_DROP_COUNTER_NAME = {
    outcome._value_: f"network.nlb_dropped.{outcome.name.lower()}"
    for outcome in RequestOutcome
}


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for requests with no healthy backend.

    Attempt *k* (0-based) is retried after
    ``min(base_delay_s * 2**k, max_delay_s)`` seconds; after
    ``max_attempts`` retries the request is dropped as
    ``DROPPED_NO_BACKEND``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        check_int("max_attempts", self.max_attempts, minimum=0)
        check_positive("base_delay_s", self.base_delay_s)
        check_non_negative("max_delay_s", self.max_delay_s)

    def delay_for(self, attempt: int) -> float:
        """Backoff delay before retry number *attempt* (0-based)."""
        return min(self.base_delay_s * (2.0 ** attempt), self.max_delay_s)


class ForwardingPolicy(Protocol):
    """Strategy: choose the backend server for a request."""

    def select(self, request: Request, servers: Sequence[Server]) -> Server:
        """Return the server for *request*; *servers* is the NLB
        rotation's ``alive`` list, never empty."""
        ...


class RoundRobinPolicy:
    """Cycle through the backend list — the classic NLB default."""

    def __init__(self) -> None:
        self._next = 0

    def select(self, request: Request, servers: Sequence[Server]) -> Server:
        """Return the next backend in rotation."""
        if not servers:
            raise ValueError("no backend servers")
        server = servers[self._next % len(servers)]
        self._next += 1
        return server


class AdmissionFilter(Protocol):
    """NLB-side shaping hook: may reject a request before forwarding."""

    def admit(self, request: Request, now: float) -> bool:
        """Return ``False`` to drop the request at the balancer."""
        ...


class NetworkLoadBalancer:
    """Ingress pipeline tying firewall, shaping and forwarding together.

    Parameters
    ----------
    servers:
        Backend rotation in rack order, held as :attr:`rotation`.
    policy:
        Forwarding strategy (default round-robin).
    firewall:
        Perimeter defence consulted first; ``None`` disables it.
    admission_filter:
        Optional NLB-side shaper consulted after the firewall.
    drop_sink:
        Callback recording requests rejected anywhere in the pipeline.
    now:
        Clock accessor used to timestamp drops.
    obs:
        Observation context counters are recorded into; defaults to a
        private recorder (the simulation facade passes the engine's).
    retry_policy:
        Backoff policy for requests that find no healthy backend
        (crashed or powered-off servers leave ``rotation.alive``).
        Retries need a *scheduler*; without one the request is dropped
        immediately as ``DROPPED_NO_BACKEND``.
    scheduler:
        ``scheduler(delay_s, callback)`` used to defer retries — the
        simulation facade passes ``engine.schedule``.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        policy: Optional[ForwardingPolicy] = None,
        firewall: Optional[RateLimitFirewall] = None,
        admission_filter: Optional[AdmissionFilter] = None,
        drop_sink: Optional[DropSink] = None,
        now: Optional[Callable[[], float]] = None,
        obs: Optional[Recorder] = None,
        retry_policy: Optional[RetryPolicy] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        require(len(servers) > 0, "NLB needs at least one backend")
        self.rotation = ServerPool(servers)
        self.policy: ForwardingPolicy = policy or RoundRobinPolicy()
        self.firewall = firewall
        self.admission_filter = admission_filter
        self.drop_sink = drop_sink
        self._now = now or (lambda: 0.0)
        self._obs = obs if obs is not None else Recorder()
        self._counters = self._obs.counters
        # Once-per-request tallies, bumped in place (``Counters.cell``).
        self._forwarded_cell = self._counters.cell("network.nlb_forwarded")
        self._drop_cells = {
            value: self._counters.cell(name)
            for value, name in _DROP_COUNTER_NAME.items()
        }
        self.retry_policy = retry_policy
        self._scheduler = scheduler
        self.forwarded = 0
        self.dropped = 0
        self.rerouted = 0

    def dispatch(self, request: Request) -> bool:
        """Run *request* through the ingress pipeline.

        Returns ``True`` when the request reached a server queue.  Every
        rejection is reported to ``drop_sink`` with the pipeline stage
        that caused it; a request deferred for retry returns ``False``
        without a terminal event (it is still in flight).
        """
        now = self._now()
        if self.firewall is not None and not self.firewall.admit(
            request.source_id, now
        ):
            self._drop(request, RequestOutcome.DROPPED_FIREWALL, now)
            return False
        if self.admission_filter is not None and not self.admission_filter.admit(
            request, now
        ):
            self._drop(request, RequestOutcome.DROPPED_TOKEN, now)
            return False
        return self._forward(request, now)

    def reroute(self, request: Request) -> bool:
        """Re-enter an already-admitted request (server-crash shed path).

        Skips the firewall and the admission filter — the request paid
        those tolls on first entry; losing its server is not a reason to
        charge them again.
        """
        self.rerouted += 1
        self._counters.inc("network.nlb_rerouted")
        return self._forward(request, self._now())

    def _forward(self, request: Request, now: float) -> bool:
        """Select a healthy backend and submit; retry/drop when none."""
        alive = self.rotation.alive
        if not alive:
            return self._retry_or_drop(request, now)
        server = self.policy.select(request, alive)
        if not server.submit(request):
            self._drop(request, RequestOutcome.DROPPED_QUEUE_FULL, now)
            return False
        self.forwarded += 1
        self._forwarded_cell[0] += 1
        return True

    def _retry_or_drop(self, request: Request, now: float) -> bool:
        """Back off and retry when allowed; otherwise a fault drop."""
        policy = self.retry_policy
        if (
            policy is not None
            and self._scheduler is not None
            and request.retries < policy.max_attempts
        ):
            attempt = request.retries
            request.retries += 1
            self._counters.inc("network.nlb_retries")
            self._scheduler(
                policy.delay_for(attempt),
                lambda r=request: self._forward(r, self._now()),
            )
            return False
        self._drop(request, RequestOutcome.DROPPED_NO_BACKEND, now)
        return False

    def drop_bulk(self, count: int, outcome: RequestOutcome) -> None:
        """Account *count* pre-aggregated drops (fluid-drain path).

        The fluid drain absorbs whole cohorts before they reach
        :meth:`dispatch`; this keeps the balancer's drop tallies and
        the per-outcome counters consistent with what *count*
        individual rejections would have recorded.  Terminal records
        are the drain's job (it writes one aggregate record instead of
        *count* per-request ones).  *count* is at least 1: the drain
        skips empty cohorts.
        """
        self.dropped += count
        self._drop_cells[outcome._value_][0] += count

    def _drop(self, request: Request, outcome: RequestOutcome, now: float) -> None:
        self.dropped += 1
        self._drop_cells[outcome._value_][0] += 1
        if self.drop_sink is not None:
            self.drop_sink(request, outcome, now)
        if request.on_terminal is not None:
            request.on_terminal(request, outcome, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkLoadBalancer({len(self.rotation.members)} backends, "
            f"forwarded={self.forwarded}, dropped={self.dropped})"
        )
