"""Unit tests for the leaf-server queueing/power state machine."""

import pytest

from repro.cluster import Server
from repro.network import Request, RequestOutcome
from repro.workloads import COLLA_FILT, TEXT_CONT, TrafficClass


def make_request(rtype=TEXT_CONT, t=0.0, source=0):
    return Request(rtype, source, TrafficClass.NORMAL, t)


def noiseless(rtype):
    """A copy of *rtype* with deterministic service time."""
    from dataclasses import replace

    return replace(rtype, service_cv=0.0)


class TestSubmitAndServe:
    def test_completion_recorded(self, engine, server, collector):
        assert server.submit(make_request())
        engine.run()
        assert len(collector.records) == 1
        record = collector.records[0]
        assert record.outcome is RequestOutcome.COMPLETED
        assert record.response_time > 0

    def test_service_time_matches_model_when_noiseless(self, engine, server):
        rtype = noiseless(TEXT_CONT)
        done = []
        req = make_request(rtype)
        req.on_terminal = lambda r, o, t: done.append(t)
        server.submit(req)
        engine.run()
        assert done[0] == pytest.approx(rtype.base_service_s)

    def test_concurrent_requests_use_workers(self, engine, server):
        for i in range(server.num_workers):
            server.submit(make_request(source=i))
        assert server.busy_workers == server.num_workers
        assert server.queue_length == 0

    def test_excess_requests_queue(self, engine, server):
        for i in range(server.num_workers + 3):
            server.submit(make_request(source=i))
        assert server.busy_workers == server.num_workers
        assert server.queue_length == 3

    def test_queue_drains_fifo(self, engine, rng, collector):
        server = Server(0, engine, rng, completion_sink=collector.sink)
        rtype = noiseless(TEXT_CONT)
        reqs = [make_request(rtype, source=i) for i in range(12)]
        for r in reqs:
            server.submit(r)
        engine.run()
        finished = [rec.request_id for rec in collector.records]
        # First 8 start together; the queued 4 finish strictly after in
        # submission order.
        assert finished[8:] == [r.request_id for r in reqs[8:]]

    def test_queue_overflow_rejected(self, engine, rng):
        server = Server(0, engine, rng, queue_capacity=2)
        accepted = [server.submit(make_request(source=i)) for i in range(12)]
        # 8 workers + 2 queue slots = 10 accepted.
        assert accepted.count(True) == 10
        assert accepted.count(False) == 2
        assert server.rejected == 2


class TestDVFSRescaling:
    def test_throttle_stretches_inflight_request(self, engine, rng):
        server = Server(0, engine, rng)
        rtype = noiseless(COLLA_FILT)
        done = []
        req = make_request(rtype)
        req.on_terminal = lambda r, o, t: done.append(t)
        server.submit(req)
        # Halfway through, throttle to the bottom of the ladder.
        half = rtype.base_service_s / 2
        engine.schedule(half, lambda: server.set_level(0))
        engine.run()
        # Remaining half of the work runs at speedup(0.5).
        expected = half + half / rtype.speedup(0.5)
        assert done[0] == pytest.approx(expected, rel=1e-9)

    def test_speedup_shrinks_inflight_request(self, engine, rng):
        server = Server(0, engine, rng)
        server.set_level(0)
        rtype = noiseless(COLLA_FILT)
        done = []
        req = make_request(rtype)
        req.on_terminal = lambda r, o, t: done.append(t)
        server.submit(req)
        slow_total = rtype.base_service_s / rtype.speedup(0.5)
        engine.schedule(
            slow_total / 2, lambda: server.set_level(server.ladder.max_level)
        )
        engine.run()
        remaining_work = rtype.base_service_s / 2
        assert done[0] == pytest.approx(slow_total / 2 + remaining_work, rel=1e-9)

    def test_set_same_level_is_noop(self, engine, server):
        server.submit(make_request())
        before = server.level
        server.set_level(before)
        assert server.level == before

    def test_level_clamped(self, engine, server):
        server.set_level(-5)
        assert server.level == 0
        server.set_level(99)
        assert server.level == server.ladder.max_level

    def test_step_down_and_up(self, server):
        top = server.ladder.max_level
        server.step_down(3)
        assert server.level == top - 3
        server.step_up(1)
        assert server.level == top - 2


class TestPowerAccounting:
    def test_idle_power_when_empty(self, server):
        assert server.current_power() == pytest.approx(
            server.power_model.idle_power(1.0)
        )

    def test_power_rises_with_load(self, engine, server):
        idle = server.current_power()
        server.submit(make_request(COLLA_FILT))
        assert server.current_power() > idle

    def test_energy_integral_exact_for_idle_server(self, engine, rng):
        server = Server(0, engine, rng)
        engine.schedule(10.0, lambda: None)
        engine.run()
        expected = server.power_model.idle_power(1.0) * 10.0
        assert server.energy_joules() == pytest.approx(expected)

    def test_energy_accounts_for_busy_period(self, engine, rng):
        server = Server(0, engine, rng)
        rtype = noiseless(COLLA_FILT)
        server.submit(make_request(rtype))
        engine.schedule(10.0, lambda: None)
        engine.run()
        idle = server.power_model.idle_power(1.0)
        busy_extra = server.power_model.worker_power(rtype, 1.0)
        expected = idle * 10.0 + busy_extra * rtype.base_service_s
        assert server.energy_joules() == pytest.approx(expected, rel=1e-6)


class TestValidation:
    def test_negative_server_id_rejected(self, engine, rng):
        with pytest.raises(ValueError):
            Server(-1, engine, rng)

    def test_negative_queue_capacity_rejected(self, engine, rng):
        with pytest.raises(ValueError):
            Server(0, engine, rng, queue_capacity=-1)

    @pytest.mark.parametrize("level", [-1, -3, 13, 99])
    def test_power_at_level_off_the_ladder_rejected(self, engine, rng, level):
        # A fresh server has no registered type, so only the idle floor
        # is read; a raw list index would give -1 the top level's 38.0 W.
        server = Server(0, engine, rng)
        with pytest.raises(ValueError, match="outside ladder"):
            server.power_at_level(level)
        # A failed server predicts 0 W on the ladder, and still checks it.
        server.fail()
        assert [server.power_at_level(lv) for lv in range(13)] == [0.0] * 13
        with pytest.raises(ValueError, match="outside ladder"):
            server.power_at_level(level)


class TestQueueTimeout:
    def test_stale_queued_requests_are_abandoned(self, engine, rng, collector):
        from repro.cluster import Server

        server = Server(
            0, engine, rng, completion_sink=collector.sink, queue_timeout_s=0.05
        )
        rtype = noiseless(COLLA_FILT)  # 150 ms service
        # Fill all workers, then queue more than can start within 50 ms.
        for i in range(server.num_workers + 4):
            server.submit(make_request(rtype, source=i))
        engine.run()
        outcomes = collector.outcome_counts()
        # Workers' own requests complete; queued ones wait >= 150 ms and
        # are abandoned when a worker frees up.
        assert outcomes[RequestOutcome.TIMED_OUT] == 4
        assert outcomes[RequestOutcome.COMPLETED] == server.num_workers
        assert server.timed_out == 4

    def test_fast_queue_is_unaffected(self, engine, rng, collector):
        from repro.cluster import Server

        server = Server(
            0, engine, rng, completion_sink=collector.sink, queue_timeout_s=10.0
        )
        for i in range(server.num_workers + 4):
            server.submit(make_request(noiseless(TEXT_CONT), source=i))
        engine.run()
        outcomes = collector.outcome_counts()
        assert outcomes[RequestOutcome.TIMED_OUT] == 0
        assert outcomes[RequestOutcome.COMPLETED] == server.num_workers + 4

    def test_on_terminal_fires_for_timeout(self, engine, rng):
        from repro.cluster import Server

        server = Server(0, engine, rng, queue_timeout_s=0.01)
        rtype = noiseless(COLLA_FILT)
        for i in range(server.num_workers):
            server.submit(make_request(rtype, source=i))
        seen = []
        victim = make_request(rtype, source=99)
        victim.on_terminal = lambda r, o, t: seen.append(o)
        server.submit(victim)
        engine.run()
        assert seen == [RequestOutcome.TIMED_OUT]

    def test_invalid_timeout_rejected(self, engine, rng):
        from repro.cluster import Server

        with pytest.raises(ValueError):
            Server(0, engine, rng, queue_timeout_s=0.0)
