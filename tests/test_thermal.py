"""Unit tests for the thermal substrate."""

import math

import numpy as np
import pytest

from repro import CappingScheme, DataCenterSimulation, NullScheme, SimulationConfig
from repro.cluster import Rack
from repro.cluster.thermal import (
    ServerThermalModel,
    ThermalMonitor,
    cooling_power_w,
)
from repro.network import Request
from repro.sim.events import PRIORITY_CONTROL
from repro.workloads import COLLA_FILT, TrafficClass, dope_mix


class TestRCModel:
    def test_starts_at_inlet(self):
        model = ServerThermalModel(t_inlet_c=25.0)
        assert model.temperature_c == 25.0

    def test_steady_state(self):
        model = ServerThermalModel(r_th_c_per_w=0.5, t_inlet_c=25.0)
        assert model.steady_state_c(100.0) == pytest.approx(75.0)

    def test_exponential_approach(self):
        model = ServerThermalModel(r_th_c_per_w=0.5, tau_s=60.0, t_inlet_c=25.0)
        model.advance(0.0, power_w=100.0)  # anchor the clock
        model.advance(60.0, power_w=100.0)  # one time constant
        expected = 75.0 + (25.0 - 75.0) * math.exp(-1.0)
        assert model.temperature_c == pytest.approx(expected)

    def test_converges_to_steady_state(self):
        model = ServerThermalModel(r_th_c_per_w=0.5, tau_s=10.0, t_inlet_c=25.0)
        model.advance(0.0, power_w=100.0)
        model.advance(1000.0, power_w=100.0)
        assert model.temperature_c == pytest.approx(75.0, abs=0.01)

    def test_cools_down_when_power_drops(self):
        model = ServerThermalModel(r_th_c_per_w=0.5, tau_s=10.0, t_inlet_c=25.0)
        model.advance(0.0, power_w=100.0)
        model.advance(1000.0, power_w=100.0)
        model.advance(2000.0, power_w=0.0)
        assert model.temperature_c == pytest.approx(25.0, abs=0.01)

    def test_first_advance_only_anchors(self):
        # Regression: a model created while the clock is already past
        # zero must not integrate a phantom [0, now) warm-up interval.
        model = ServerThermalModel(r_th_c_per_w=0.5, tau_s=10.0, t_inlet_c=25.0)
        model.advance(500.0, power_w=100.0)
        assert model.temperature_c == 25.0
        model.advance(1500.0, power_w=100.0)
        assert model.temperature_c == pytest.approx(75.0, abs=0.01)

    def test_zero_dt_is_noop(self):
        model = ServerThermalModel()
        t0 = model.advance(0.0, 100.0)
        assert model.advance(0.0, 100.0) == t0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerThermalModel(r_th_c_per_w=0.0)
        with pytest.raises(ValueError):
            ServerThermalModel(tau_s=-1.0)


def load_server(server, per=8):
    for i in range(per):
        server.submit(Request(COLLA_FILT, i, TrafficClass.ATTACK, 0.0))


class TestThermalMonitor:
    @pytest.fixture
    def monitored(self, engine):
        rack = Rack(engine, num_servers=2, rng=np.random.default_rng(0))
        monitor = ThermalMonitor(
            engine,
            rack,
            t_trip_c=60.0,
            t_resume_c=50.0,
            interval_s=1.0,
            model_factory=lambda: ServerThermalModel(
                r_th_c_per_w=0.5, tau_s=10.0, t_inlet_c=25.0
            ),
        )
        monitor.start()
        return rack, monitor

    def test_idle_rack_stays_cool(self, engine, monitored):
        rack, monitor = monitored
        engine.run(until=60.0)
        # Idle: 38 W → steady state 44 C < 60 C trip.
        assert monitor.max_temperature() < 50.0
        assert monitor.stats.emergencies == 0

    def test_sustained_load_trips_emergency(self, engine, monitored):
        rack, monitor = monitored

        def keep_hot():
            for s in rack.servers:
                while s.busy_workers < s.num_workers:
                    load_server(s, per=1)

        stop = engine.every(0.5, keep_hot, start_delay_s=0.0)
        engine.run(until=120.0)
        stop()
        # Full Colla-Filt load: 100 W → steady state 75 C > 60 C trip.
        assert monitor.stats.emergencies >= 1
        assert any(monitor.in_emergency(s) or True for s in rack.servers)

    def test_emergency_forces_bottom_level(self, engine, monitored):
        rack, monitor = monitored
        server = rack.servers[0]
        monitor.models[server.server_id].temperature_c = 70.0  # above trip
        monitor.step()
        assert server.level == 0
        assert monitor.in_emergency(server)
        # The emergency is a ceiling: a scheme's control slot cannot lift it.
        server.set_level(server.ladder.max_level)
        server.step_up()
        assert server.level == 0

    def test_emergency_released_with_hysteresis(self, engine, monitored):
        rack, monitor = monitored
        server = rack.servers[0]
        monitor.models[server.server_id].temperature_c = 70.0
        monitor.step()
        # Cooled into the hysteresis band: still throttled.
        monitor.models[server.server_id].temperature_c = 55.0
        monitor.models[server.server_id]._last_t = engine.now
        monitor.step()
        assert monitor.in_emergency(server)
        # Cooled below resume: released to the pre-emergency level.
        monitor.models[server.server_id].temperature_c = 45.0
        monitor.models[server.server_id]._last_t = engine.now
        monitor.step()
        assert not monitor.in_emergency(server)
        assert server.level == server.ladder.max_level

    @pytest.mark.parametrize("scheme", [NullScheme, CappingScheme])
    def test_control_slot_cannot_lift_an_emergency(self, scheme):
        # Both schemes set every server's level in each control slot,
        # which runs after the monitor at the same instant.  A server in
        # emergency must still be at level 0 once that slot has run.
        sim = DataCenterSimulation(
            SimulationConfig(seed=6, use_firewall=False), scheme=scheme()
        )
        monitor = ThermalMonitor(
            sim.engine,
            sim.rack,
            t_trip_c=50.0,
            t_resume_c=45.0,
            model_factory=lambda: ServerThermalModel(
                r_th_c_per_w=0.45, tau_s=20.0, t_inlet_c=25.0
            ),
        )
        monitor.start()
        sim.add_normal_traffic(rate_rps=30)
        sim.add_flood(mix=dope_mix(), rate_rps=300, num_agents=20, start_s=10)
        levels_in_emergency = []

        def after_control():
            levels_in_emergency.extend(
                s.level for s in sim.rack.servers if monitor.in_emergency(s)
            )

        sim.engine.every(1.0, after_control, priority=PRIORITY_CONTROL + 1)
        sim.run(90.0)
        assert monitor.stats.emergencies >= 1
        assert levels_in_emergency and set(levels_in_emergency) == {0}

    def test_samples_recorded(self, engine, monitored):
        rack, monitor = monitored
        engine.run(until=5.0)
        assert len(monitor.stats.samples) == 5
        assert len(monitor.stats.samples[0].temperatures_c) == 2

    def test_validation(self, engine, monitored):
        rack, _ = monitored
        with pytest.raises(ValueError):
            ThermalMonitor(engine, rack, t_trip_c=50.0, t_resume_c=60.0)

    def test_double_start_rejected(self, monitored):
        _, monitor = monitored
        with pytest.raises(RuntimeError):
            monitor.start()


class TestCoolingPower:
    def test_cop_model(self):
        assert cooling_power_w(300.0, cop=3.0) == pytest.approx(100.0)

    def test_zero_load(self):
        assert cooling_power_w(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cooling_power_w(-1.0)
        with pytest.raises(ValueError):
            cooling_power_w(100.0, cop=0.0)
