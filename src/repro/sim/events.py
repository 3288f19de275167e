"""The event queue of the discrete-event engine.

A scheduled event is its heap entry: the list
``[time_s, priority, seq, callback, arg]``.  Entries are ordered by
``(time_s, priority, seq)`` so that simultaneous events dispatch in a
deterministic order: lower priority values run first, and among equal
priorities the event scheduled first runs first.  The unique ``seq``
guarantees a comparison never reaches the callback, so every sift
comparison stays a C-level list comparison.

Cancelling an event clears its callback (``entry[3] = None``); the entry
stays in the heap and is skipped when it surfaces, the standard
O(1)-cancel / amortised-O(log n)-pop idiom for heap-based schedulers.
An entry that has already fired is out of the heap, so clearing it
changes nothing.  :meth:`EventQueue.cancel` and
:meth:`repro.sim.engine.EventEngine.cancel` are the only ways to cancel.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from .._validation import check_finite

__all__ = [
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


class EventQueue:
    """A cancellable priority queue of ``[time_s, priority, seq,
    callback, arg]`` entries.

    ``_next_seq()`` hands out the sequence numbers; the engine builds
    and pushes its entries itself, drawing from the same counter.
    """

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: List[list] = []
        self._next_seq: Callable[[], int] = itertools.count().__next__

    def push(
        self,
        time_s: float,
        callback: Callable[..., None],
        priority: int = PRIORITY_WORKLOAD,
        arg: object = NO_ARG,
    ) -> list:
        """Schedule *callback* at absolute *time_s* and return its entry."""
        if not (-_INF < time_s < _INF):  # inline fast path; NaN also fails
            check_finite("time_s", time_s)
        entry = [float(time_s), priority, self._next_seq(), callback, arg]
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> Optional[list]:
        """Remove and return the next live entry, or ``None`` when empty.

        Cancelled entries are discarded transparently.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3] is not None:
                return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live entry without popping it."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, entry: list) -> None:
        """Cancel *entry* if it has not fired yet (a fired one is a no-op)."""
        entry[3] = None

    def __len__(self) -> int:
        """Live (non-cancelled) entries, counted from the heap.

        Counting on demand keeps every cancellation path honest — a
        cancel of a live entry, a second cancel, a cancel of an entry
        that has already fired — and costs the push and pop paths
        nothing.  Nothing on the hot path asks.
        """
        return sum(1 for entry in self._heap if entry[3] is not None)

    def __bool__(self) -> bool:
        return any(entry[3] is not None for entry in self._heap)
