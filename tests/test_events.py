"""Unit tests for the event queue primitives.

An event is its heap entry ``[time_s, priority, seq, callback, arg]``.
"""

import pytest

from repro.sim import EventQueue
from repro.sim.events import PRIORITY_CONTROL, PRIORITY_MONITOR, PRIORITY_WORKLOAD


def noop():
    pass


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, noop)
        q.push(1.0, noop)
        q.push(2.0, noop)
        times = [q.pop()[0] for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.push(1.0, noop, priority=PRIORITY_CONTROL)
        q.push(1.0, noop, priority=PRIORITY_WORKLOAD)
        q.push(1.0, noop, priority=PRIORITY_MONITOR)
        prios = [q.pop()[1] for _ in range(3)]
        assert prios == [PRIORITY_WORKLOAD, PRIORITY_MONITOR, PRIORITY_CONTROL]

    def test_fifo_among_equal_time_and_priority(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("a"))
        q.push(1.0, lambda: order.append("b"))
        q.pop()[3]()
        q.pop()[3]()
        assert order == ["a", "b"]

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None


class TestEventQueueCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, noop)
        q.push(2.0, noop)
        q.cancel(e1)
        assert q.pop()[0] == 2.0

    def test_cancel_updates_length(self):
        q = EventQueue()
        e = q.push(1.0, noop)
        assert len(q) == 1
        q.cancel(e)
        assert len(q) == 0

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.push(1.0, noop)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, noop)
        q.push(5.0, noop)
        q.cancel(e)
        assert q.peek_time() == 5.0

    def test_peek_empty(self):
        assert EventQueue().peek_time() is None


class TestEventQueueValidation:
    def test_infinite_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("inf"), noop)

    def test_bool_protocol(self):
        q = EventQueue()
        assert not q
        q.push(1.0, noop)
        assert q
