"""Unit tests for the NLB pipeline and forwarding policies."""

import pytest

from repro.network import (
    NetworkLoadBalancer,
    RateLimitFirewall,
    Request,
    RequestOutcome,
    RoundRobinPolicy,
)
from repro.cluster import Rack
from repro.workloads import TEXT_CONT, TrafficClass


def make_request(source=0):
    return Request(TEXT_CONT, source, TrafficClass.NORMAL, 0.0)


class TestRoundRobin:
    def test_cycles_through_backends(self, rack):
        policy = RoundRobinPolicy()
        picks = [policy.select(make_request(), rack.servers).server_id for _ in range(8)]
        assert picks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_empty_backends_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy().select(make_request(), [])


class TestDispatchPipeline:
    def test_forwarding_reaches_server(self, engine, rack, collector):
        nlb = NetworkLoadBalancer(rack.servers, drop_sink=collector.sink)
        assert nlb.dispatch(make_request())
        assert nlb.forwarded == 1
        assert rack.total_in_system() == 1

    def test_firewall_drop_recorded(self, engine, rack, collector):
        fw = RateLimitFirewall(threshold_rps=1.0, poll_interval_s=1.0)
        fw.attach(engine)
        nlb = NetworkLoadBalancer(
            rack.servers, firewall=fw, drop_sink=collector.sink,
            now=lambda: engine.now,
        )
        for _ in range(100):
            nlb.dispatch(make_request(source=5))
        engine.run(until=1.0)
        assert not nlb.dispatch(make_request(source=5))
        rec = collector.records[-1]
        assert rec.outcome is RequestOutcome.DROPPED_FIREWALL

    def test_admission_filter_drop_recorded(self, engine, rack, collector):
        class RejectAll:
            def admit(self, request, now):
                return False

        nlb = NetworkLoadBalancer(
            rack.servers, admission_filter=RejectAll(), drop_sink=collector.sink
        )
        assert not nlb.dispatch(make_request())
        assert collector.records[-1].outcome is RequestOutcome.DROPPED_TOKEN

    def test_queue_full_drop_recorded(self, engine, rng, collector):
        rack = Rack(engine, num_servers=1, rng=rng, queue_capacity=0)
        nlb = NetworkLoadBalancer(rack.servers, drop_sink=collector.sink)
        workers = rack.servers[0].num_workers
        for i in range(workers):
            assert nlb.dispatch(make_request(source=i))
        assert not nlb.dispatch(make_request(source=99))
        assert collector.records[-1].outcome is RequestOutcome.DROPPED_QUEUE_FULL
        assert nlb.dropped == 1

    def test_on_terminal_fires_for_drops(self, engine, rng):
        rack = Rack(engine, num_servers=1, rng=rng, queue_capacity=0)
        nlb = NetworkLoadBalancer(rack.servers)
        for i in range(rack.servers[0].num_workers):
            nlb.dispatch(make_request(source=i))
        seen = []
        req = make_request(source=99)
        req.on_terminal = lambda r, o, t: seen.append(o)
        nlb.dispatch(req)
        assert seen == [RequestOutcome.DROPPED_QUEUE_FULL]

    def test_empty_backend_list_rejected(self):
        with pytest.raises(ValueError):
            NetworkLoadBalancer([])
