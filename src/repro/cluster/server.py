"""Leaf-server model: a DVFS-capable multi-worker FIFO queue.

Each server has ``W`` worker slots and a bounded FIFO backlog.  Work is
expressed in *nominal seconds* (seconds of service at ``f_max``); a
worker drains it at the request type's ``speedup(f/f_max)``, so a DVFS
transition mid-service stretches in-flight requests exactly as a real
frequency drop would.  Power and utilisation are piecewise constant
between state changes, so the energy integral accrued at every state
change is exact, not sampled.

Power is evaluated from *per-type busy-worker counts* against rows of a
shared :class:`~repro.cluster.power_model.PowerEvalTable`, and the
resulting watts are cached until the next state change — the same float
the old per-request iteration produced for a single-type server, in
the canonical accumulation order (type-slot 0, 1, 2, …).  The table
also memoises those watts per packed count vector and level, so a
refresh after a state change is usually one dict lookup.

The server is deliberately policy-free: power managers act on it only
through :meth:`Server.set_level`, mirroring how RAPL/ACPI expose a
per-node V/F knob to cluster controllers.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from .._validation import check_int
from ..network.pool import ServerPool
from ..network.request import Request, RequestOutcome
from ..sim.engine import EventEngine
from .dvfs import FrequencyLadder
from .power_model import PowerEvalTable, ServerPowerModel

__all__ = ["Server"]

#: Standard normals drawn per ``rng.standard_normal`` call for service
#: noise.  numpy fills a block with the same per-element draw as scalar
#: calls, so each request's work is unchanged; only the stream position
#: runs ahead, to the next block boundary.
SERVICE_NOISE_BLOCK = 64

CompletionSink = Callable[[Request, RequestOutcome, float], None]
ShedSink = Callable[[Request], None]

_COMPLETED = RequestOutcome.COMPLETED


class Server:
    """One simulated leaf node.

    Parameters
    ----------
    server_id:
        Stable integer identity (index within the rack).
    engine:
        The discrete-event engine driving the simulation.
    rng:
        Seeded generator for service-time noise, private to this server
        (:class:`~repro.cluster.rack.Rack` seeds one per server): the
        server reads it ahead, :data:`SERVICE_NOISE_BLOCK` normals at a
        time.
    power_model, ladder:
        Hardware models; defaults reproduce the paper's 100 W node with
        the 1.2–2.4 GHz ladder.
    queue_capacity:
        Maximum backlog (excluding in-service requests).  Arrivals
        beyond it are rejected — the knob behind availability loss.
    completion_sink:
        Callback invoked with ``(request, outcome, time)`` when a
        request finishes service.
    queue_timeout_s:
        Maximum time a request may wait in the backlog.  A request
        whose wait exceeds it is abandoned (``TIMED_OUT``) when a
        worker would otherwise pick it up — the client has long since
        given up.  ``None`` disables timeouts.
    eval_table:
        Cached physics shared with the rest of the rack.  Servers of
        one rack must share a table so their type→slot maps agree; a
        standalone server gets a private one.
    """

    def __init__(
        self,
        server_id: int,
        engine: EventEngine,
        rng: np.random.Generator,
        power_model: Optional[ServerPowerModel] = None,
        ladder: Optional[FrequencyLadder] = None,
        queue_capacity: int = 512,
        completion_sink: Optional[CompletionSink] = None,
        queue_timeout_s: Optional[float] = None,
        eval_table: Optional[PowerEvalTable] = None,
    ) -> None:
        check_int("server_id", server_id, minimum=0)
        check_int("queue_capacity", queue_capacity, minimum=0)
        if queue_timeout_s is not None and queue_timeout_s <= 0:
            raise ValueError(
                f"queue_timeout_s must be > 0, got {queue_timeout_s}"
            )
        self.server_id = server_id
        self.engine = engine
        self._clock = engine.clock
        self._obs = engine.obs
        self._counters = engine.obs.counters
        self.rng = rng
        self.power_model = power_model or ServerPowerModel()
        self.ladder = ladder or FrequencyLadder()
        if eval_table is None:
            eval_table = PowerEvalTable(self.power_model, self.ladder)
        elif eval_table.model is not self.power_model or (
            eval_table.ladder is not self.ladder
        ):
            raise ValueError(
                "eval_table must be built from this server's power model "
                "and ladder"
            )
        self.eval_table = eval_table
        # Per-server constants the request path reads on every start
        # and finish, fetched once here: the worker count, the rack
        # registry's slot lookup, and the bound schedule and completion
        # callbacks.
        self._num_workers = self.power_model.num_workers
        self._slot_of = eval_table.registry.slot_of
        self._schedule = engine.schedule
        self._finish_cb = self._finish
        self.queue_capacity = queue_capacity
        self.completion_sink = completion_sink
        self.queue_timeout_s = queue_timeout_s

        self.level = self.ladder.max_level
        #: Highest level :meth:`set_level` applies, whatever it is asked
        #: for.  A thermal emergency lowers it to 0 until it is released
        #: (:class:`~repro.cluster.thermal.ThermalMonitor`).
        self.level_ceiling = self.ladder.max_level
        self.powered_on = True
        self.failed = False
        #: Written only by :meth:`_set_healthy`, which refreshes
        #: ``pools`` (each pool registers itself) when it flips.
        self.healthy = True
        self.pools: List[ServerPool] = []
        self._queue: Deque[Request] = deque()
        #: In service, by request id: ``[request, finish event, last
        #: resume time, type slot]``.
        self._active: Dict[int, list] = {}

        # Busy workers per type slot, plus the cached physics rows for
        # the current level.  The rows grow in place as new types
        # register, and are re-fetched whenever ``_counts`` grows, so
        # ``len(row) >= len(self._counts)`` always holds.
        self._counts: List[int] = []
        self._factor_row: List[float] = eval_table.factor_row(self.level)
        self._speedup_row: List[float] = eval_table.speedup_row(self.level)
        self._idle_w: float = eval_table.idle_power_at(self.level)
        # ``_counts`` packed as Σ counts[slot] · (W + 1) ** slot, kept in
        # step with it; ``_place[slot]`` is (W + 1) ** slot.  It keys the
        # rack's memo of watts at the current level.
        self._code = 0
        self._place: List[int] = []
        self._watts_memo: Dict[int, float] = eval_table.watts_memo(self.level)
        self._evals = self._counters.cell("cluster.power_model_evals")
        # The rest of the current noise block, reversed for ``pop()``.
        self._normals: List[float] = []

        # Cached instantaneous power; invalidated by every state change.
        self._power_w = self._idle_w
        self._power_dirty = False

        # Exact piecewise-constant energy integral.
        self._energy_j = 0.0
        self._last_accrual = engine.now

        # Counters.
        self.completed = 0
        self.rejected = 0
        self.timed_out = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """Worker slots available for concurrent service."""
        return self.power_model.num_workers

    @property
    def busy_workers(self) -> int:
        """Workers currently serving a request."""
        return len(self._active)

    @property
    def queue_length(self) -> int:
        """Requests waiting in the backlog."""
        return len(self._queue)

    @property
    def in_system(self) -> int:
        """Waiting plus in-service requests."""
        return len(self._queue) + len(self._active)

    @property
    def freq_ratio(self) -> float:
        """Current ``f / f_max``."""
        return self.ladder.ratio(self.level)

    @property
    def frequency_ghz(self) -> float:
        """Current operating frequency in GHz."""
        return self.ladder.frequency(self.level)

    def current_power(self) -> float:
        """Instantaneous power draw in watts (zero when off or crashed)."""
        if not self.healthy:
            return 0.0
        if self._power_dirty:
            self._evals[0] += 1
            power_w = self._watts_memo.get(self._code)
            if power_w is None:
                power_w = self.power_model.power_from_counts(
                    self._counts, self._factor_row, self._idle_w
                )
                self._watts_memo[self._code] = power_w
            self._power_w = power_w
            self._power_dirty = False
        return self._power_w

    def power_at_level(self, level: int) -> float:
        """Power the *current* load would draw at ladder *level*.

        Used by capping planners to rank candidate levels.  A server
        that is not healthy draws nothing at any level, as
        :meth:`current_power` reads it.  A level off the ladder raises
        ``ValueError``, healthy or not.
        """
        table = self.eval_table
        factor_row = table.factor_row(level)
        if not self.healthy:
            return 0.0
        return self.power_model.power_from_counts(
            self._counts, factor_row, table.idle_power_at(level)
        )

    def energy_joules(self) -> float:
        """Energy consumed since construction (exact integral)."""
        self._accrue()
        return self._energy_j

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> bool:
        """Offer *request* to the server.

        Returns ``False`` (and counts a rejection) when the backlog is
        full; the caller is responsible for recording the drop outcome.
        """
        request.server_id = self.server_id
        if not self.healthy:
            self.rejected += 1
            return False
        if len(self._active) < self._num_workers:
            self._start(request)
            return True
        if len(self._queue) >= self.queue_capacity:
            self.rejected += 1
            return False
        self._queue.append(request)
        return True

    def _start(self, request: Request) -> None:
        # _accrue(), inline: this and _finish are the request path.
        now = self._clock._now
        dt = now - self._last_accrual
        if dt > 0:
            self._energy_j += self.current_power() * dt
        self._last_accrual = now
        request.start_service_time_s = now
        rtype = request.rtype
        sigma = rtype._ln_sigma
        if sigma > 0.0:
            normals = self._normals
            if not normals:
                normals = self.rng.standard_normal(SERVICE_NOISE_BLOCK).tolist()
                normals.reverse()
                self._normals = normals
            # == rng.lognormal(mu, sigma), which numpy defines as
            # exp(mu + sigma * standard_normal()).
            work = rtype.base_service_s * math.exp(
                rtype._ln_mu + sigma * normals.pop()
            )
        else:
            work = rtype.base_service_s
        request.remaining_work = work
        slot = self._slot_of(rtype)
        counts = self._counts
        if slot >= len(counts):
            counts.extend([0] * (slot + 1 - len(counts)))
            base = self._num_workers + 1
            self._place = [base**i for i in range(len(counts))]
            # Re-fetch the rows: fetching extends them in place to the
            # registry's new size.
            self._factor_row = self.eval_table.factor_row(self.level)
            self._speedup_row = self.eval_table.speedup_row(self.level)
        counts[slot] += 1
        self._code += self._place[slot]
        self._power_dirty = True
        event = self._schedule(
            work / self._speedup_row[slot], self._finish_cb, arg=request
        )
        self._active[request.request_id] = [request, event, now, slot]

    def _finish(self, request: Request) -> None:
        entry = self._active.pop(request.request_id, None)
        if entry is None:  # not in service: finished, or lost to a crash
            return
        # _accrue(), inline, before the busy count drops, so the final
        # service slice is charged at the busy power level.
        now = self._clock._now
        dt = now - self._last_accrual
        if dt > 0:
            self._energy_j += self.current_power() * dt
        self._last_accrual = now
        slot = entry[3]
        self._counts[slot] -= 1
        self._code -= self._place[slot]
        self._power_dirty = True
        self.completed += 1
        if self.completion_sink is not None:
            self.completion_sink(request, _COMPLETED, now)
        if request.on_terminal is not None:
            request.on_terminal(request, _COMPLETED, now)
        if self._queue:
            self._pull_next()

    def _pull_next(self) -> None:
        """Promote queued requests, abandoning ones past their timeout."""
        now = self._clock._now
        while self._queue and len(self._active) < self._num_workers:
            queued = self._queue.popleft()
            if (
                self.queue_timeout_s is not None
                and now - queued.arrival_time_s > self.queue_timeout_s
            ):
                self.timed_out += 1
                if self.completion_sink is not None:
                    self.completion_sink(queued, RequestOutcome.TIMED_OUT, now)
                if queued.on_terminal is not None:
                    queued.on_terminal(queued, RequestOutcome.TIMED_OUT, now)
                continue
            self._start(queued)

    # ------------------------------------------------------------------
    # DVFS
    # ------------------------------------------------------------------
    def set_level(self, level: int) -> None:
        """Move the server to frequency *level*, rescaling in-flight work.

        Remaining work of every in-service request is drained at the old
        speed up to "now", then its departure is rescheduled at the new
        speed — the exact semantics of a V/F transition under a
        work-conserving processor.  *level* is clamped to the ladder,
        then to :attr:`level_ceiling`.
        """
        level = min(self.ladder.clamp(level), self.level_ceiling)
        if level == self.level:
            return
        self._counters.inc("cluster.dvfs_transitions")
        self._accrue()
        now = self._clock._now
        old_speedups = self._speedup_row
        self.level = level
        table = self.eval_table
        self._factor_row = table.factor_row(level)
        self._speedup_row = table.speedup_row(level)
        self._idle_w = table.idle_power_at(level)
        self._watts_memo = table.watts_memo(level)
        self._power_dirty = True
        new_speedups = self._speedup_row
        for entry in self._active.values():
            request, event, last_resume, slot = entry
            elapsed_s = now - last_resume
            request.remaining_work = max(
                0.0, request.remaining_work - elapsed_s * old_speedups[slot]
            )
            self.engine.cancel(event)
            delay_s = request.remaining_work / new_speedups[slot]
            entry[1] = self._schedule(delay_s, self._finish_cb, arg=request)
            entry[2] = now

    def set_powered(self, on: bool) -> None:
        """Power the node on or off (auto-scaling / power gating).

        Powering off requires the server to be drained — a live node is
        never yanked.  The energy integral accrues at the old power
        level up to the switch instant, so gated time contributes zero.
        """
        if on == self.powered_on:
            return
        if not on and self.in_system > 0:
            raise RuntimeError(
                f"cannot power off server {self.server_id}: "
                f"{self.in_system} requests in system"
            )
        self._accrue()
        self.powered_on = on
        self._set_healthy(on and not self.failed)
        self._power_dirty = True

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def fail(self, shed_sink: Optional[ShedSink] = None) -> None:
        """Crash the server (fault injection).

        In-service requests are lost: their departure events are
        cancelled and each is reported as ``FAILED_SERVER`` — both the
        completion sink and the request's ``on_terminal`` fire, so
        closed-loop clients observe the failure instead of deadlocking.
        Queued requests have done no work yet; they are handed to
        *shed_sink* (the NLB re-route path) when given, and reported as
        ``FAILED_SERVER`` otherwise.  The server's pools drop it before
        either happens, because both re-enter the NLB.  Idempotent.
        """
        if self.failed:
            return
        # Charge energy/busy time at the pre-crash power level first.
        self._accrue()
        self.failed = True
        self._set_healthy(False)
        self.crashes += 1
        self._counters.inc("cluster.server_failures")
        now = self._clock._now
        lost = []
        for request, event, _, _ in self._active.values():
            self.engine.cancel(event)
            lost.append(request)
        self._active.clear()
        self._counts = [0] * len(self._counts)
        self._code = 0
        self._power_dirty = True
        shed = list(self._queue)
        self._queue.clear()
        for request in lost:
            self._counters.inc("cluster.requests_lost_to_crash")
            self._terminate(request, RequestOutcome.FAILED_SERVER, now)
        for request in shed:
            if shed_sink is not None:
                self._counters.inc("cluster.requests_shed_to_nlb")
                shed_sink(request)
            else:
                self._counters.inc("cluster.requests_lost_to_crash")
                self._terminate(request, RequestOutcome.FAILED_SERVER, now)

    def recover(self) -> None:
        """Return a crashed server to service (empty, at its set level)."""
        if not self.failed:
            return
        # Downtime accrues at zero power.
        self._accrue()
        self.failed = False
        self._set_healthy(self.powered_on)
        self._power_dirty = True
        self._counters.inc("cluster.server_recoveries")

    def _set_healthy(self, healthy: bool) -> None:
        if healthy != self.healthy:
            self.healthy = healthy
            for pool in self.pools:
                pool.refresh()

    def _terminate(
        self, request: Request, outcome: RequestOutcome, now: float
    ) -> None:
        """Report a terminal *outcome* to both sinks."""
        if self.completion_sink is not None:
            self.completion_sink(request, outcome, now)
        if request.on_terminal is not None:
            request.on_terminal(request, outcome, now)

    def step_down(self, steps: int = 1) -> None:
        """Lower frequency by *steps* ladder positions."""
        self.set_level(self.ladder.step_down(self.level, steps))

    def step_up(self, steps: int = 1) -> None:
        """Raise frequency by *steps* ladder positions."""
        self.set_level(self.ladder.step_up(self.level, steps))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _accrue(self) -> None:
        now = self._clock._now
        dt = now - self._last_accrual
        if dt <= 0:
            self._last_accrual = now
            return
        self._energy_j += self.current_power() * dt
        self._last_accrual = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Server(#{self.server_id}, f={self.frequency_ghz:.1f}GHz, "
            f"busy={self.busy_workers}/{self.num_workers}, q={self.queue_length})"
        )
