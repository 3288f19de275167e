"""The event core's dispatch order and cancellation, against a reference.

Random interleavings of ``schedule``, ``schedule_at``, ``cancel``,
``every`` and its stop function, and ``run`` slices drive an
:class:`~repro.sim.engine.EventEngine` beside a reference that keeps its
live events in a dict and always dispatches the smallest
``(time_s, priority, seq)``.  Times are multiples of 0.5 s and
priorities come from the three bands, so equal times and equal
priorities are common.  After every step the dispatch log, the clock,
``pending()`` and the returned entries must agree, including after a
cancel of an event that has already fired (which must do nothing).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventEngine
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MONITOR, PRIORITY_WORKLOAD


class _Reference:
    """Live events by sequence number; dispatch by sorting their keys."""

    def __init__(self) -> None:
        self.now = 0.0
        self.next_seq = 0
        #: seq -> (time_s, priority, label, recurrence index or None)
        self.live: Dict[int, Tuple[float, int, object, Optional[int]]] = {}
        self.log: List[object] = []
        #: [interval_s, priority, stopped, pending seq]
        self.recurrences: List[list] = []

    def push(self, time_s: float, priority: int, label, recurrence=None) -> int:
        seq = self.next_seq
        self.next_seq += 1
        self.live[seq] = (time_s, priority, label, recurrence)
        return seq

    def cancel(self, seq: int) -> None:
        self.live.pop(seq, None)

    def every(self, interval_s: float, priority: int, start_s: float) -> int:
        index = len(self.recurrences)
        seq = self.push(self.now + start_s, priority, ("every", index), index)
        self.recurrences.append([interval_s, priority, False, seq])
        return index

    def stop(self, index: int) -> None:
        recurrence = self.recurrences[index]
        recurrence[2] = True
        self.cancel(recurrence[3])

    def run(self, until: float) -> None:
        while True:
            due = sorted(
                (t, p, seq) for seq, (t, p, _, _) in self.live.items() if t <= until
            )
            if not due:
                break
            time_s, _, seq = due[0]
            _, _, label, index = self.live.pop(seq)
            self.now = time_s
            self.log.append(label)
            if index is not None:
                interval_s, priority, stopped, _ = self.recurrences[index]
                if not stopped:
                    self.recurrences[index][3] = self.push(
                        time_s + interval_s, priority, label, index
                    )
        self.now = until


_HALVES = st.integers(min_value=0, max_value=6).map(lambda k: k * 0.5)
_PRIORITIES = st.sampled_from((PRIORITY_WORKLOAD, PRIORITY_MONITOR, PRIORITY_CONTROL))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _HALVES, _PRIORITIES),
        st.tuples(st.just("schedule_at"), _HALVES, _PRIORITIES),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40), st.none()),
        st.tuples(
            st.just("every"),
            st.tuples(st.sampled_from((0.5, 1.0, 1.5)), _HALVES),
            _PRIORITIES,
        ),
        st.tuples(st.just("stop"), st.integers(min_value=0, max_value=6), st.none()),
        st.tuples(st.just("run"), _HALVES, st.none()),
    ),
    max_size=40,
)


@given(ops=_OPS)
@settings(max_examples=200, deadline=None)
def test_dispatch_order_pending_and_cancel_match_reference(ops):
    engine = EventEngine()
    ref = _Reference()
    log: List[object] = []
    handles: List[Tuple[list, int]] = []  # (engine entry, reference seq)
    stops = []

    def check() -> None:
        assert log == ref.log
        assert engine.now == ref.now
        assert engine.pending() == len(ref.live)

    for kind, first, priority in ops:
        if kind in ("schedule", "schedule_at"):
            label = ("once", len(handles))
            time_s = engine.now + first
            seq = ref.push(time_s, priority, label)
            if kind == "schedule":
                # The arg path: the callback receives the label.
                entry = engine.schedule(first, log.append, priority, arg=label)
            else:
                entry = engine.schedule_at(
                    time_s, lambda label=label: log.append(label), priority
                )
            assert entry[:3] == [time_s, priority, seq]
            handles.append((entry, seq))
        elif kind == "cancel":
            if handles:
                entry, seq = handles[first % len(handles)]
                # A fired entry is out of the heap: cancelling it (or
                # cancelling twice) changes nothing.
                engine.cancel(entry)
                ref.cancel(seq)
        elif kind == "every":
            interval_s, start_s = first
            index = ref.every(interval_s, priority, start_s)
            stops.append(
                engine.every(
                    interval_s,
                    lambda index=index: log.append(("every", index)),
                    priority,
                    start_delay_s=start_s,
                )
            )
        elif kind == "stop":
            if stops:
                index = first % len(stops)
                stops[index]()
                ref.stop(index)
        else:
            until = engine.now + first
            engine.run(until=until)
            ref.run(until)
        check()
    for stop in stops:
        stop()
    for index in range(len(stops)):
        ref.stop(index)
    engine.run()
    ref.run(ref.now if not ref.live else max(t for t, _, _, _ in ref.live.values()))
    check()
    assert engine.pending() == 0
