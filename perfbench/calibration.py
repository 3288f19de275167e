"""Host speed reference: a fixed loop, timed next to the runs.

On a shared host the CPU itself runs slower for tens of seconds to
minutes at a time, while neighbours contend for caches, memory and
sibling hyperthreads; CPU time cannot leave that out.  :func:`loop` does
a fixed amount of the kind of work the simulator does (heap pushes and
pops of tuples, small ``__slots__`` objects, dict updates, numpy calls
on small arrays) and depends on nothing in ``src/``.  Its CPU time,
taken between a run's slices, measures how fast this host is at that
moment.  The numpy calls matter: with them, the loop's slowdowns tracked
the simulator's more closely than a pure-Python loop's did.

A time ``t`` measured while the loop took ``loop_s`` is reported in
*reference CPU seconds*: ``t * REFERENCE_S / loop_s``, the time it
would have taken on a host that runs the loop in :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy

__all__ = ["REFERENCE_S", "loop", "to_reference_s"]

#: CPU seconds one :func:`loop` takes on the reference host (about its
#: time on an idle 2-vCPU Intel Xeon VM with Python 3.11).  Only the
#: scale of reported times depends on it.
REFERENCE_S = 0.005

#: Heap operations per pass; every fourth also makes two numpy calls.
_ITERATIONS = 2_000
#: A rack's worth of per-server powers, the size the simulator sums.
_POWERS_W = numpy.linspace(100.0, 250.0, 16)


class _Item:
    __slots__ = ("stamp", "key", "weight")

    def __init__(self, stamp: int, key: int, weight: float) -> None:
        self.stamp = stamp
        self.key = key
        self.weight = weight


def loop() -> float:
    """Run the reference loop twice; return the CPU seconds of the second.

    The first pass refills the caches the caller's work evicted, so the
    time depends on the host, not on what ran before.  The garbage
    collector is paused, so a collection of the caller's heap is never
    charged to the loop.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _one_pass()
        start = time.process_time()
        _one_pass()
        return time.process_time() - start
    finally:
        if was_enabled:
            gc.enable()


def _one_pass() -> float:
    heap: list = []  # (time_s, sequence, item), like the event heap
    totals: dict = {}
    kept = []
    power_w = 0.0
    x = 12345
    for i in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x * 1e-9, i, _Item(x, i & 255, 0.5)))
        if len(heap) > 64:
            item = heapq.heappop(heap)[2]
            totals[item.key] = totals.get(item.key, 0.0) + item.weight * 1.0001
            kept.append(item)
        if i & 3 == 0:
            power_w += float(numpy.sum(_POWERS_W * (1.0 + x * 1e-12)))
    return power_w


def to_reference_s(cpu_s: float, loop_s: float) -> float:
    """*cpu_s*, measured while :func:`loop` took *loop_s*, in reference seconds."""
    return cpu_s * REFERENCE_S / loop_s
