"""Event primitives for the discrete-event engine.

An :class:`Event` is a scheduled callback.  Events are ordered by
``(time_s, priority, sequence)`` so that simultaneous events dispatch in a
deterministic order: lower priority values run first, and among equal
priorities the event scheduled first runs first.  Cancellation is done
lazily (the heap entry stays in the queue but is skipped on pop), which
is the standard O(1)-cancel / amortised-O(log n)-pop idiom for heap
based schedulers.

The heap stores ``(time_s, priority, seq, event)`` tuples rather than
the events themselves: the unique ``seq`` guarantees the :class:`Event`
object is never compared, so every sift comparison is a C-level tuple
comparison instead of a Python ``__lt__`` call — the difference between
~0.4 µs and ~0.07 µs per comparison on the hot path.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from .._validation import check_finite

__all__ = [
    "Event",
    "EventQueue",
    "NO_ARG",
]

# Well-known priority bands.  Control actions run after the workload
# events of the same instant so that a power reading taken "at" t sees
# every arrival/departure that happened at t.
PRIORITY_WORKLOAD = 0
PRIORITY_MONITOR = 10
PRIORITY_CONTROL = 20

#: Sentinel meaning "callback takes no argument".  Scheduling with a
#: real ``arg`` lets hot callers (server completions) avoid allocating a
#: capturing lambda per event.
NO_ARG = object()

_INF = float("inf")


class Event:
    """A scheduled callback inside the simulation.

    Instances are created by :meth:`repro.sim.engine.EventEngine.schedule`;
    user code normally only keeps them around to :meth:`cancel` them.
    """

    __slots__ = ("time_s", "priority", "seq", "callback", "arg", "cancelled")

    def __init__(
        self,
        time_s: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        arg: object = NO_ARG,
    ) -> None:
        self.time_s = time_s
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time_s, self.priority, self.seq) < (
            other.time_s,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time_s:.6f}, prio={self.priority}, {state})"


_HeapEntry = Tuple[float, int, int, Event]


class EventQueue:
    """A cancellable priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_count")

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._count = 0

    def push(
        self,
        time_s: float,
        callback: Callable[..., None],
        priority: int = PRIORITY_WORKLOAD,
        arg: object = NO_ARG,
    ) -> Event:
        """Schedule *callback* at absolute *time_s* and return its handle."""
        if not (-_INF < time_s < _INF):  # inline fast path; NaN also fails
            check_finite("time_s", time_s)
        time_s = float(time_s)
        seq = self._count
        self._count = seq + 1
        event = Event(time_s, priority, seq, callback, arg)
        heapq.heappush(self._heap, (time_s, priority, seq, event))
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` when empty.

        Cancelled events are discarded transparently.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, event: Event) -> None:
        """Cancel *event* if it has not fired yet (a fired one is a no-op)."""
        event.cancelled = True

    def __len__(self) -> int:
        """Live (non-cancelled) entries, counted from the heap.

        Counting on demand keeps every cancellation path honest —
        :meth:`Event.cancel`, :meth:`cancel` and a cancel of an event
        that has already fired — and costs the push and pop paths
        nothing.  Nothing on the hot path asks.
        """
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)
