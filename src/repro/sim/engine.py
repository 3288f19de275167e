"""Discrete-event simulation engine.

The engine owns the :class:`~repro.sim.clock.SimulationClock` and the
:class:`~repro.sim.events.EventQueue` and exposes the two operations
everything else is built from:

* :meth:`EventEngine.schedule` / :meth:`EventEngine.schedule_at` —
  register a callback at a future simulation time;
* :meth:`EventEngine.run` — dispatch events in time order until a
  deadline or until the queue drains.

It also provides :meth:`EventEngine.every`, a convenience for the
slotted control loops (power managers, firewall polls, attacker
adjustment) that the paper's systems are built around.

Execution modes
---------------
The engine runs in one of two *execution* modes, selected at
construction and deliberately **not** part of any
:class:`~repro.sim.config.SimulationConfig` (a mode is a strategy for
evaluating the same model, not a different model — config hashes and
deterministic manifests must not depend on it):

* ``"scalar"`` — the reference path: every arrival is its own heap
  event.
* ``"batched"`` — cohort run-ahead: an open-loop traffic generator may
  advance a run of consecutive arrivals *inline* (one heap event for
  the whole cohort) via :meth:`try_advance_inline`, as long as no other
  queued event falls between them and the run deadline admits it.  Each
  inline arrival still advances the clock and counts as one dispatched
  (logical) event, so ``engine.events_dispatched`` is identical across
  modes — the byte-identical equivalence contract the golden tests
  enforce.

On top of the batched mode sits the **opt-in hybrid fluid mode**
(``fluid=True``): when a segment of simulated time is *provably steady*
— every arrival in it deterministically takes the same terminal path,
e.g. an open-loop flood whose sources are all firewall-banned past the
segment's end — the segment is integrated analytically instead of
event by event (:meth:`try_advance_fluid`).  The absorbed arrivals are
credited as dispatched logical events and accounted in bulk, but their
per-request ids are never materialised and their interarrival gaps are
replaced by one aggregate draw, so fluid runs are *statistically*
faithful rather than byte-identical.  Fluid mode therefore sits outside
the golden-equivalence contract and is never enabled by default.
"""

from __future__ import annotations

import itertools
import math
import os
from heapq import heappop, heappush
from typing import Callable, Optional, Tuple

from .._validation import check_finite, check_non_negative, check_positive
from ..obs import Recorder
from .clock import SimulationClock
from .events import NO_ARG, EventQueue, PRIORITY_WORKLOAD

__all__ = [
    "EventEngine",
    "ENGINE_MODES",
    "ENGINE_SELECT_ENV",
    "ENGINE_SELECTIONS",
    "engine_from_env",
    "resolve_engine_selection",
]

_INF = float("inf")

#: Valid execution modes.
ENGINE_MODES = ("scalar", "batched")

#: Environment variable selecting an engine for env-aware entry points
#: (the figure benches, the region sweep).
ENGINE_SELECT_ENV = "REPRO_BENCH_ENGINE"

#: Valid engine selections: the two execution modes plus ``"fluid"``
#: (the batched engine with hybrid fluid integration opted in).
ENGINE_SELECTIONS = ("scalar", "batched", "fluid")


def engine_from_env(default: str = "fluid") -> str:
    """The engine selected by ``REPRO_BENCH_ENGINE``, or *default*.

    Entry points differ in their default: the figure benches run at
    full speed (``"fluid"``), while exact consumers (the region sweep)
    default to ``"batched"``, which is byte-identical to scalar.
    """
    value = os.environ.get(ENGINE_SELECT_ENV, "").strip().lower()
    if not value:
        return default
    if value not in ENGINE_SELECTIONS:
        raise ValueError(
            f"{ENGINE_SELECT_ENV} must be one of {ENGINE_SELECTIONS}, "
            f"got {value!r}"
        )
    return value


def resolve_engine_selection(engine: str) -> Tuple[str, bool]:
    """Map an engine selection name to ``(EventEngine mode, fluid flag)``."""
    if engine == "fluid":
        return "batched", True
    if engine not in ENGINE_SELECTIONS:
        raise ValueError(
            f"engine must be one of {ENGINE_SELECTIONS}, got {engine!r}"
        )
    return engine, False


class EventEngine:
    """Heap-based discrete event loop with a monotonic clock.

    Every engine carries its own :class:`~repro.obs.Recorder`
    (``obs``): the observation context all components wired to this
    engine record into.

    Parameters
    ----------
    mode:
        Execution strategy, ``"scalar"`` (default) or ``"batched"`` —
        see the module docstring.  Same-seed runs produce byte-identical
        deterministic outputs in either mode.
    fluid:
        Opt into hybrid fluid integration of provably-steady segments
        (requires ``mode="batched"``).  Fluid runs are statistically
        faithful but **not** byte-identical to scalar runs — see the
        module docstring.
    """

    def __init__(self, mode: str = "scalar", fluid: bool = False) -> None:
        if mode not in ENGINE_MODES:
            raise ValueError(
                f"mode must be one of {ENGINE_MODES}, got {mode!r}"
            )
        if fluid and mode != "batched":
            raise ValueError("fluid mode requires mode='batched'")
        self.clock = SimulationClock()
        self.obs = Recorder()
        self.mode = mode
        #: Fast-path flag components branch on (``mode == "batched"``).
        self.batched = mode == "batched"
        #: Hybrid fluid integration enabled (batched engines only).
        self.fluid = fluid
        self._queue = EventQueue()
        # ``schedule`` builds and pushes heap entries itself.
        self._heap = self._queue._heap
        self._next_seq = self._queue._next_seq
        self._running = False
        self._stopped = False
        self._until: Optional[float] = None
        self.dispatched = 0
        #: ``next_serial()`` — the next id from this engine's entity
        #: counter (0, 1, 2, …).  Entities that need a unique,
        #: reproducible identity within one simulated world (e.g.
        #: requests) draw from here instead of a process-global counter,
        #: so that two same-seed simulations number their entities
        #: identically — a prerequisite for byte-identical exports.  A
        #: bound ``count.__next__`` is one C call per request.
        self.next_serial: Callable[[], int] = itertools.count().__next__

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self.clock._now

    def schedule(
        self,
        delay_s: float,
        callback: Callable[..., None],
        priority: int = PRIORITY_WORKLOAD,
        arg: object = NO_ARG,
    ) -> list:
        """Schedule *callback* to run *delay_s* seconds from now.

        When *arg* is given the callback is invoked as ``callback(arg)``
        — hot callers use this to avoid allocating a capturing lambda
        per event.  Returns the event's heap entry
        (:mod:`repro.sim.events`), the handle :meth:`cancel` takes.
        """
        if delay_s < 0.0:
            check_non_negative("delay_s", delay_s)  # raises with full context
        time_s = self.clock._now + delay_s
        if not (-_INF < time_s < _INF):  # NaN also fails
            check_finite("time_s", time_s)
        entry = [float(time_s), priority, self._next_seq(), callback, arg]
        heappush(self._heap, entry)
        return entry

    def schedule_at(
        self,
        time_s: float,
        callback: Callable[..., None],
        priority: int = PRIORITY_WORKLOAD,
        arg: object = NO_ARG,
    ) -> list:
        """Schedule *callback* at the absolute simulation *time_s*."""
        if time_s < self.clock._now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock._now}, "
                f"requested={time_s}"
            )
        return self._queue.push(time_s, callback, priority, arg)

    def every(
        self,
        interval_s: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_WORKLOAD,
        start_delay_s: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run *callback* every *interval_s* seconds until cancelled.

        Returns a zero-argument function that stops the recurrence.  The
        first invocation happens after *start_delay_s* (default: one full
        interval).
        """
        check_positive("interval_s", interval_s)
        if start_delay_s is not None:
            check_non_negative("start_delay_s", start_delay_s)
        state = {"event": None, "stopped": False}

        def tick() -> None:
            """One recurrence firing; reschedules itself until stopped."""
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["event"] = self.schedule(interval_s, tick, priority)

        first = interval_s if start_delay_s is None else start_delay_s
        state["event"] = self.schedule(first, tick, priority)

        def stop() -> None:
            """Cancel the recurrence."""
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                self.cancel(event)

        return stop

    def cancel(self, event: list) -> None:
        """Cancel a scheduled event by its entry (a fired one is a no-op)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events in order until *until* (or queue exhaustion).

        Events with timestamp exactly equal to *until* are executed.
        With a deadline the clock ends at *until*, whether the queue
        still holds later events or drained early (unless :meth:`stop`
        ends the run first); without one (``until=None``) it ends at
        the last dispatched event.

        Returns the final simulation time.

        Raises
        ------
        ValueError
            If *until* is not finite (NaN would never be reached and
            infinity never stops a recurring control loop) or earlier
            than the current time.  Nothing is dispatched, and the queue
            is left as it was.
        RuntimeError
            On a re-entrant call from inside a dispatched callback.
        """
        if self._running:
            raise RuntimeError("engine is already running (re-entrant run())")
        if until is not None and not (self.clock._now <= until < math.inf):
            raise ValueError(
                f"until must be a finite time no earlier than now="
                f"{self.clock._now}, got {until!r}"
            )
        self._running = True
        self._stopped = False
        self._until = until
        dispatched_before = self.dispatched
        sim_before_s = self.clock._now
        heap = self._heap
        clock = self.clock
        limit = _INF if until is None else until
        dispatched = 0
        try:
            with self.obs.timers.phase("engine.run"):
                # The loop touches heap entries and the clock directly:
                # an advance is one attribute store.  Entries popped
                # here are monotonically ordered by construction, so
                # the clock's backwards check is redundant on this path
                # (and stays armed everywhere else).  The first entry
                # past the deadline goes back on the heap; the keys are
                # unique, so the dispatch order does not change.
                while heap and not self._stopped:
                    entry = heappop(heap)
                    callback = entry[3]
                    if callback is None:
                        continue
                    time_s = entry[0]
                    if time_s > limit:
                        heappush(heap, entry)
                        clock.advance_to(until)
                        break
                    clock._now = time_s
                    arg = entry[4]
                    if arg is NO_ARG:
                        callback()
                    else:
                        callback(arg)
                    dispatched += 1
                else:
                    if until is not None and clock._now < until and not self._stopped:
                        clock.advance_to(until)
        finally:
            self.dispatched += dispatched
            self._running = False
            self._until = None
            counters = self.obs.counters
            counters.inc("engine.run_calls")
            counters.inc(
                "engine.events_dispatched", self.dispatched - dispatched_before
            )
            counters.inc(
                "engine.sim_time_advanced_s", self.clock._now - sim_before_s
            )
        return self.clock._now

    def try_advance_inline(self, time_s: float) -> bool:
        """Batched-mode run-ahead: advance the clock to *time_s* inline.

        Succeeds — advancing the clock and counting one dispatched
        logical event — only when it is *provably* equivalent to
        scheduling and immediately popping a heap event at *time_s*:

        * a :meth:`run` is active and has not been stopped;
        * *time_s* does not overrun the run deadline;
        * *time_s* is **strictly** earlier than every queued event (a
          queued event with an equal timestamp holds a smaller sequence
          number and must dispatch first in scalar mode);
        * *time_s* does not move the clock backwards (also rejects NaN).

        Returns ``False`` without side effects otherwise; the caller
        falls back to scheduling a regular event.
        """
        if not self._running or self._stopped:
            return False
        until = self._until
        if until is not None and time_s > until:
            return False
        next_time_s = self._queue.peek_time()
        if next_time_s is not None and time_s >= next_time_s:
            return False
        clock = self.clock
        if not (time_s >= clock._now):  # NaN fails every comparison
            return False
        clock._now = time_s
        self.dispatched += 1
        return True

    def try_advance_fluid(self, time_s: float, n_events: int) -> bool:
        """Fluid-mode segment jump: advance to *time_s* in one step.

        Credits *n_events* analytically integrated arrivals as
        dispatched logical events without materialising them.  The jump
        is admitted only when it provably cannot reorder anything:

        * fluid mode is on, a :meth:`run` is active and not stopped;
        * *time_s* does not overrun the run deadline;
        * *time_s* does not pass any queued event (landing exactly *on*
          the next event's timestamp is fine — the absorbed arrivals
          all lie strictly inside the segment);
        * *time_s* does not move the clock backwards (rejects NaN).

        The caller is responsible for the segment's *model* accounting
        (drop counters, firewall stats, aggregate completion records);
        this method only handles clock and engine bookkeeping.
        """
        if not self.fluid or not self._running or self._stopped:
            return False
        until = self._until
        if until is not None and time_s > until:
            return False
        next_time_s = self._queue.peek_time()
        if next_time_s is not None and time_s > next_time_s:
            return False
        clock = self.clock
        if not (time_s >= clock._now):  # NaN fails every comparison
            return False
        dt_s = time_s - clock._now
        clock._now = time_s
        self.dispatched += n_events
        counters = self.obs.counters
        counters.inc("engine.fluid_segments")
        counters.inc("engine.fluid_time_advanced_s", dt_s)
        return True

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue.

        Counted from the heap on each call, so every way of cancelling
        — :meth:`cancel`, a recurrence stopping itself inside its own
        tick, a cancel of an event that already fired — is reflected
        exactly.  O(queued entries): meant for tests and diagnostics,
        not the hot path.
        """
        return len(self._queue)
