"""Traffic generator: the engine-driven request source.

A :class:`TrafficGenerator` owns one arrival process, one request-type
mix and one source pool, and feeds the NLB dispatch function one
request per arrival event.  Sources are cycled round-robin across the
pool's agents so an aggregate rate ``R`` over ``N`` agents presents as
``R/N`` per source to the firewall — the mechanism every attacker in
this package builds on.

Rate changes (ramps, the DOPE adjustment loop) swap the arrival
process in place; the change takes effect from the next scheduled
arrival, modelling a load generator reconfiguring between batches.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

from .._validation import check_non_negative, check_positive, require
from ..network.request import Request
from ..network.sources import SourcePool
from ..sim.engine import EventEngine
from ..trace.arrival import ArrivalProcess, PoissonProcess
from .catalog import RequestMix, RequestType

__all__ = [
    "TrafficGenerator",
    "ClosedLoopGenerator",
    "clients_for_rate",
]

Dispatch = Callable[[Request], bool]

#: Minimum expected arrivals in a candidate fluid segment.  Below this
#: the per-request batched path is at least as cheap as the segment
#: bookkeeping, so the generator does not bother with the jump.
_FLUID_MIN_EXPECTED_EVENTS = 4.0


class TrafficGenerator:
    """Emit requests from *source_pool* into *dispatch*.

    Parameters
    ----------
    engine:
        Simulation engine.
    dispatch:
        Ingress function (normally ``NetworkLoadBalancer.dispatch``).
    rng:
        Seeded generator for type sampling and arrival noise.
    source_pool:
        Agent identities this generator sends from.
    mix:
        Request-type distribution (a single :class:`RequestType` is
        accepted and wrapped as a degenerate mix).
    process:
        Arrival process producing inter-arrival gaps.
    label:
        Name used in diagnostics.
    """

    def __init__(
        self,
        engine: EventEngine,
        dispatch: Dispatch,
        rng: np.random.Generator,
        source_pool: SourcePool,
        mix,
        process: ArrivalProcess,
        label: str = "traffic",
    ) -> None:
        self.engine = engine
        self._clock = engine.clock
        self.dispatch = dispatch
        self.rng = rng
        self.source_pool = source_pool
        if isinstance(mix, RequestType):
            mix = RequestMix({mix: 1.0})
        require(isinstance(mix, RequestMix), "mix must be a RequestMix or RequestType")
        self.mix = mix
        self.process = process
        self.label = label
        self.generated = 0
        self.accepted = 0
        self._next_agent = 0
        self._pending = None
        self._running = False
        #: Optional fluid absorber (:class:`repro.sim.fluid.
        #: BannedPoolDrain`); wired by the simulation facade on fluid
        #: engines, consulted only there.
        self.fluid_drain = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Begin generating after *delay_s* seconds."""
        check_non_negative("delay_s", delay_s)
        if self._running:
            raise RuntimeError(f"generator {self.label!r} already running")
        self._running = True
        self._pending = self.engine.schedule(delay_s, self._first_arrival)

    def stop(self) -> None:
        """Stop generating; pending arrival is cancelled."""
        self._running = False
        if self._pending is not None:
            self.engine.cancel(self._pending)
            self._pending = None

    def run_window(self, start_s: float, end_s: float) -> None:
        """Generate only inside ``[start_s, end_s)`` (attack windows)."""
        require(0 <= start_s < end_s, "need 0 <= start_s < end_s")
        self.engine.schedule_at(start_s, lambda: self.start(0.0))
        self.engine.schedule_at(end_s, self.stop)

    @property
    def current_rate(self) -> float:
        """Mean rate of the active arrival process."""
        return self.process.mean_rate()

    # ------------------------------------------------------------------
    # Event path
    # ------------------------------------------------------------------
    def _first_arrival(self) -> None:
        # The window opens with an immediate draw of the first gap so a
        # generator started at t emits its first request at t + gap.
        self._schedule_next()

    def _schedule_next(self) -> None:
        if not self._running:
            return
        if self.engine.batched:
            self._advance_batched()
            return
        gap = self.process.next_interarrival(self.rng, self._clock._now)
        if math.isinf(gap):
            self._running = False
            self._pending = None
            return
        self._pending = self.engine.schedule(gap, self._emit)

    def _emit(self) -> None:
        if not self._running:
            return
        self._emit_one()
        self._schedule_next()

    def _emit_one(self) -> RequestType:
        """Generate and dispatch one request at the current instant."""
        rtype = self.mix.sample(self.rng)
        pool = self.source_pool
        source_id = pool.first_id + self._next_agent
        self._next_agent = (self._next_agent + 1) % pool.size
        request = Request(
            rtype,
            source_id,
            pool.traffic_class,
            self._clock._now,
            self.engine.next_serial(),
        )
        self.generated += 1
        if self.dispatch(request):
            self.accepted += 1
        return rtype

    def _advance_batched(self) -> None:
        """Cohort run-ahead: emit consecutive arrivals inline.

        Replays the exact scalar sequence — draw gap, arrive, sample
        type, dispatch, draw next gap — but advances the clock through
        :meth:`~repro.sim.engine.EventEngine.try_advance_inline`
        instead of paying a heap round-trip per arrival.  The inline
        advance succeeds only while this generator's next arrival
        provably precedes every queued event, so nothing (completions,
        control slots, ``stop()`` windows) can interleave mid-run and
        the RNG draw order is untouched.  The moment that proof fails,
        the arrival is scheduled as a regular event from the same
        ``gap`` — the identical float the scalar path would push — and
        the loop exits.

        Consecutive same-type arrivals within one run form a *cohort*
        (requests still materialise ids individually at dispatch, where
        firewall/PDF/service outcomes diverge); the cohort tallies feed
        the execution counters, which the deterministic manifest
        excludes.
        """
        engine = self.engine
        clock = engine.clock
        rng = self.rng
        fluid = engine.fluid and self.fluid_drain is not None
        cohort_type: Optional[RequestType] = None
        cohort_len = 0
        cohorts = 0
        cohort_requests = 0
        while self._running:
            if fluid and self._try_fluid_segment():
                continue
            gap = self.process.next_interarrival(rng, clock._now)
            if math.isinf(gap):
                self._running = False
                self._pending = None
                break
            if not engine.try_advance_inline(clock._now + gap):
                self._pending = engine.schedule(gap, self._emit)
                break
            rtype = self._emit_one()
            if rtype is cohort_type:
                cohort_len += 1
            else:
                if cohort_len:
                    cohorts += 1
                    cohort_requests += cohort_len
                cohort_type = rtype
                cohort_len = 1
        if cohort_len:
            cohorts += 1
            cohort_requests += cohort_len
        if cohorts:
            counters = engine.obs.counters
            counters.inc("engine.cohorts_dispatched", cohorts)
            counters.inc("engine.cohort_requests", cohort_requests)

    def _try_fluid_segment(self) -> bool:
        """Analytically integrate one provably-steady segment.

        Applies only on fluid engines with a wired drain, and only
        while the arrival process is a homogeneous (memoryless)
        Poisson stream — restarting such a process at the segment end
        is exact.  The segment runs from now to the earliest of the
        drain's steadiness horizon, the next queued event and the run
        deadline; the arrival count is one Poisson draw, the bulk
        bookkeeping is the drain's, and the absorbed requests never
        materialise ids.  Returns ``False`` (no side effects) when the
        proof fails or the segment is too short to pay for itself.
        """
        process = self.process
        if type(process) is not PoissonProcess:
            return False
        rate = process.rate
        if rate <= 0.0:
            return False
        engine = self.engine
        now = engine.clock._now
        # The deadline and the next queued event bound the segment
        # whatever the drain's horizon is, so test them first: the
        # horizon is an O(pool) ban scan, wasted when they leave too
        # little room anyway.
        t_end = engine._until
        next_time_s = engine._queue.peek_time()
        if next_time_s is not None and (t_end is None or next_time_s < t_end):
            t_end = next_time_s
        if t_end is not None and not (
            (t_end - now) * rate >= _FLUID_MIN_EXPECTED_EVENTS
        ):  # NaN-safe
            return False
        drain = self.fluid_drain
        horizon = drain.horizon(now)
        if horizon is None:
            return False
        if t_end is None or horizon < t_end:
            t_end = horizon
        dt = t_end - now
        if not (dt * rate >= _FLUID_MIN_EXPECTED_EVENTS):  # NaN-safe
            return False
        count = int(self.rng.poisson(rate * dt))
        if not engine.try_advance_fluid(t_end, count):
            return False
        if count:
            self.generated += count
            drain.absorb(self, count, t_end)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrafficGenerator({self.label!r}, rate~{self.current_rate:.0f}rps, "
            f"generated={self.generated})"
        )


class ClosedLoopGenerator:
    """Fixed-concurrency load generator (ApacheBench / http-load model).

    ``num_clients`` virtual clients each keep exactly one request
    outstanding: send → wait for the terminal event (completion *or*
    drop) → think for an exponential pause → send again.  Offered load
    is therefore self-limiting — when the victim slows down (DVFS) or
    sheds requests, the achieved rate drops instead of the queues
    exploding, exactly like the paper's attack tools with a fixed
    concurrency setting.

    The aggregate achieved rate is roughly
    ``num_clients / (think_s + response_time)``; use
    :func:`clients_for_rate` to size a client pool for a target rate.

    Parameters
    ----------
    engine, dispatch, rng, source_pool, mix:
        As for :class:`TrafficGenerator`.
    num_clients:
        Concurrency level (outstanding requests).
    think_s:
        Mean exponential think time between a response and the client's
        next request.
    """

    def __init__(
        self,
        engine: EventEngine,
        dispatch: Dispatch,
        rng: np.random.Generator,
        source_pool: SourcePool,
        mix,
        num_clients: int,
        think_s: float = 0.2,
        label: str = "closed-loop",
    ) -> None:
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        check_non_negative("think_s", think_s)
        self.engine = engine
        self._clock = engine.clock
        self.dispatch = dispatch
        self.rng = rng
        self.source_pool = source_pool
        if isinstance(mix, RequestType):
            mix = RequestMix({mix: 1.0})
        require(isinstance(mix, RequestMix), "mix must be a RequestMix or RequestType")
        self.mix = mix
        self.num_clients = int(num_clients)
        self.think_s = float(think_s)
        self.label = label
        self.generated = 0
        self.accepted = 0
        self._running = False
        self._active_clients = 0
        self._next_agent = 0
        # Epoch guards against stale in-flight terminals resurrecting
        # clients after a stop()/start() cycle (pulse attacks restart).
        self._epoch = 0
        # The send callback every client schedules, and the engine
        # calls each request makes, bound once.  The terminal callback
        # carries the epoch, so it is rebuilt only when the epoch
        # changes (start()), never per request.
        self._send = self._client_send
        self._schedule = engine.schedule
        self._next_serial = engine.next_serial
        self._on_terminal = functools.partial(self._client_terminal, self._epoch)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, delay_s: float = 0.0) -> None:
        """Spin up all clients after *delay_s* seconds.

        Restartable: a stopped generator may be started again; requests
        still in flight from the previous burst terminate without
        re-issuing.
        """
        check_non_negative("delay_s", delay_s)
        if self._running:
            raise RuntimeError(f"generator {self.label!r} already running")
        self._running = True
        self._epoch += 1
        self._on_terminal = functools.partial(self._client_terminal, self._epoch)
        self.engine.schedule(delay_s, self._launch_clients, arg=self._epoch)

    def _launch_clients(self, epoch: int) -> None:
        if not self._running or epoch != self._epoch:
            return
        # Stagger client starts across one think time so the opening
        # burst does not arrive as a single instant spike.
        self._active_clients = 0
        spread = max(self.think_s, 0.05)
        for _ in range(self.num_clients):
            # == rng.uniform(0.0, spread): numpy defines it as
            # 0.0 + (spread - 0.0) * random(), and the sum is exact.
            offset = spread * self.rng.random()
            self.engine.schedule(offset, self._send, arg=epoch)
            self._active_clients += 1

    def stop(self) -> None:
        """Cease fire: clients stop re-issuing after their next terminal."""
        self._running = False

    def run_window(self, start_s: float, end_s: float) -> None:
        """Generate only inside ``[start_s, end_s)``."""
        require(0 <= start_s < end_s, "need 0 <= start_s < end_s")
        self.engine.schedule_at(start_s, lambda: self.start(0.0))
        self.engine.schedule_at(end_s, self.stop)

    def set_clients(self, num_clients: int) -> None:
        """Grow or shrink the client pool (the DOPE rate knob).

        Growth launches fresh clients immediately; shrinkage retires
        clients as their in-flight requests terminate.
        """
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        delta = int(num_clients) - self.num_clients
        self.num_clients = int(num_clients)
        if self._running and delta > 0:
            epoch = self._epoch
            spread = max(self.think_s, 0.05)
            for _ in range(delta):
                offset = spread * self.rng.random()  # == uniform(0.0, spread)
                self.engine.schedule(offset, self._send, arg=epoch)
                self._active_clients += 1
        # Negative delta handled lazily in _client_send.

    @property
    def current_rate(self) -> float:
        """Rough upper bound of the achieved rate (zero think assumed)."""
        base = self.mix.expected_base_service()
        return self.num_clients / max(self.think_s + base, 1e-9)

    # ------------------------------------------------------------------
    # Client loop
    # ------------------------------------------------------------------
    def _client_send(self, epoch: int) -> None:
        if not self._running or epoch != self._epoch:
            return
        if self._active_clients > self.num_clients:
            self._active_clients -= 1  # retire excess client
            return
        rtype = self.mix.sample(self.rng)
        pool = self.source_pool
        source_id = pool.first_id + self._next_agent
        self._next_agent = (self._next_agent + 1) % pool.size
        request = Request(
            rtype,
            source_id,
            pool.traffic_class,
            self._clock._now,
            self._next_serial(),
        )
        request.on_terminal = self._on_terminal
        self.generated += 1
        if self.dispatch(request):
            self.accepted += 1
        # Drops fire on_terminal synchronously, which reschedules us.

    def _client_terminal(
        self, epoch: int, request: Request, outcome: object, time_s: float
    ) -> None:
        """``on_terminal`` of a request sent in *epoch*: think, send again."""
        if not self._running or epoch != self._epoch:
            return
        # rng.exponential already returns a Python float.
        think = self.rng.exponential(self.think_s) if self.think_s > 0 else 0.0
        self._schedule(think, self._send, arg=epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClosedLoopGenerator({self.label!r}, clients={self.num_clients}, "
            f"generated={self.generated})"
        )


def clients_for_rate(
    target_rate_rps: float, mix, think_s: float = 0.2
) -> int:
    """Client count for a target *unthrottled* rate.

    Little's law at the healthy-system operating point:
    ``clients = rate × (think + mean service)``.  When the victim is
    throttled the same pool achieves proportionally less — by design.
    """
    check_positive("target_rate_rps", target_rate_rps)
    check_non_negative("think_s", think_s)
    if isinstance(mix, RequestType):
        base = mix.base_service_s
    else:
        base = mix.expected_base_service()
    return max(1, int(round(target_rate_rps * (think_s + base))))
