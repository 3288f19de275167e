"""Unit tests for the auto-scaler and server power gating."""

import numpy as np
import pytest

from repro.cluster import Rack
from repro.cluster.autoscaler import AutoScaler
from repro.network import NetworkLoadBalancer, Request
from repro.workloads import COLLA_FILT, TrafficClass


def make_request(rtype=COLLA_FILT, source=0, t=0.0):
    return Request(rtype, source, TrafficClass.ATTACK, t)


class TestPowerGating:
    def test_gated_server_draws_nothing(self, server):
        server.set_powered(False)
        assert server.current_power() == 0.0

    def test_gated_server_rejects_requests(self, server):
        server.set_powered(False)
        assert not server.submit(make_request())
        assert server.rejected == 1

    def test_cannot_gate_busy_server(self, engine, server):
        server.submit(make_request())
        with pytest.raises(RuntimeError, match="in system"):
            server.set_powered(False)

    def test_gated_time_consumes_no_energy(self, engine, rng):
        from repro.cluster import Server

        server = Server(0, engine, rng)
        engine.schedule(5.0, lambda: server.set_powered(False))
        engine.schedule(15.0, lambda: None)
        engine.run()
        # 5 s of idle power, 10 s gated.
        assert server.energy_joules() == pytest.approx(38.0 * 5.0)

    def test_repower_restores_service(self, engine, server, collector):
        server.set_powered(False)
        server.set_powered(True)
        assert server.submit(make_request())
        engine.run()
        assert collector.records[0].completed


@pytest.fixture
def scaled(engine):
    rack = Rack(engine, num_servers=4, rng=np.random.default_rng(0))
    nlb = NetworkLoadBalancer(rack.servers, now=lambda: engine.now)
    scaler = AutoScaler(
        engine,
        rack,
        nlb,
        min_active=1,
        high_util=0.6,
        low_util=0.2,
        interval_s=1.0,
        cooldown_s=1.0,
    )
    return rack, nlb, scaler


class TestAutoScaler:
    def test_starts_at_minimum_footprint(self, scaled):
        rack, nlb, scaler = scaled
        assert scaler.num_active == 1
        assert nlb.servers == scaler.active
        assert sum(1 for s in rack.servers if s.powered_on) == 1

    def test_idle_rack_power_is_one_server(self, scaled):
        rack, _, _ = scaled
        assert rack.total_power() == pytest.approx(38.0)

    def test_scales_out_under_load(self, engine, scaled):
        rack, nlb, scaler = scaled
        scaler.start()
        # Sustained heavy load on the single active server.
        for i in range(8):
            nlb.dispatch(make_request(source=i))

        def keep_busy():
            while scaler.active[0].busy_workers < 8 and nlb.dispatch(
                make_request(source=99)
            ):
                pass

        stop = engine.every(0.05, keep_busy)
        engine.run(until=10.0)
        stop()
        assert scaler.num_active > 1
        assert scaler.stats.scale_outs >= 1

    def test_scales_in_when_idle(self, engine, scaled):
        rack, nlb, scaler = scaled
        # Manually activate all, then leave the rack idle.
        for _ in range(3):
            scaler._scale_out(1.0)
        assert scaler.num_active == 4
        scaler.start()
        engine.run(until=20.0)
        assert scaler.num_active == 1
        assert scaler.stats.scale_ins == 3
        # Drained servers are gated again.
        assert sum(1 for s in rack.servers if s.powered_on) == 1

    def test_scale_in_drains_before_gating(self, engine, scaled):
        rack, nlb, scaler = scaled
        scaler._scale_out(1.0)
        victim = scaler.active[-1]
        victim.submit(make_request())  # long K-means-ish request in flight
        scaler._scale_in(0.0)
        # Still powered while draining.
        assert victim.powered_on
        engine.run(until=5.0)
        scaler.step()
        assert not victim.powered_on

    def test_rotation_tracks_active_set(self, scaled):
        rack, nlb, scaler = scaled
        scaler._scale_out(1.0)
        assert len(nlb.servers) == 2
        scaler._scale_in(0.0)
        assert len(nlb.servers) == 1

    def test_cooldown_limits_action_rate(self, engine, scaled):
        rack, nlb, scaler = scaled
        scaler.cooldown_s = 100.0
        scaler.start()
        for i in range(8):
            nlb.dispatch(make_request(source=i))
        stop = engine.every(0.05, lambda: nlb.dispatch(make_request(source=77)))
        engine.run(until=10.0)
        stop()
        assert scaler.stats.scale_outs <= 1

    def test_respects_max_active(self, engine):
        import numpy as np

        rack = Rack(engine, num_servers=4, rng=np.random.default_rng(0))
        nlb = NetworkLoadBalancer(rack.servers, now=lambda: engine.now)
        scaler = AutoScaler(
            engine, rack, nlb, min_active=1, max_active=2, cooldown_s=0.001
        )
        scaler._scale_out(1.0)
        # Saturate both active servers so utilisation stays at 1.0.
        for s in scaler.active:
            for i in range(s.num_workers):
                s.submit(make_request(source=i))
        for _ in range(5):
            scaler.step()
        assert scaler.num_active == 2

    def test_validation(self, engine):
        import numpy as np

        rack = Rack(engine, num_servers=2, rng=np.random.default_rng(0))
        nlb = NetworkLoadBalancer(rack.servers)
        with pytest.raises(ValueError):
            AutoScaler(engine, rack, nlb, min_active=1, max_active=5)
        with pytest.raises(ValueError):
            AutoScaler(engine, rack, nlb, high_util=0.2, low_util=0.5)

    def test_double_start_rejected(self, scaled):
        _, _, scaler = scaled
        scaler.start()
        with pytest.raises(RuntimeError):
            scaler.start()
