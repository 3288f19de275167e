"""Unit tests for the fault-injection & graceful-degradation layer."""

import json

import numpy as np
import pytest

from repro import DataCenterSimulation, SimulationConfig
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    chaos_cell,
    validate_chaos_payload,
)
from repro.metrics import availability
from repro.network import (
    FAULT_OUTCOMES,
    NetworkLoadBalancer,
    Request,
    RequestOutcome,
    RetryPolicy,
)
from repro.power import Battery, BudgetLevel, PowerBudget
from repro.power.manager import NullScheme
from repro.power.sensor import FaultyPowerSensor
from repro.workloads import COLLA_FILT, TEXT_CONT, TrafficClass, uniform_mix


def make_request(i=0, rtype=TEXT_CONT, cls=TrafficClass.NORMAL, t=0.0):
    return Request(rtype, i, cls, t)


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_builders_chain_and_append(self):
        plan = (
            FaultPlan(seed=3)
            .server_crash(10.0, 1, 5.0)
            .meter_noise(20.0, sigma_w=4.0, bias_w=1.0)
            .pdu_trip(30.0, 2.0)
            .battery_fade(40.0, 0.5)
        )
        assert len(plan) == 4
        assert [e.kind for e in plan.events] == [
            FaultKind.SERVER_CRASH,
            FaultKind.METER_NOISE,
            FaultKind.PDU_TRIP,
            FaultKind.BATTERY_FADE,
        ]

    def test_signature_is_canonical_and_deterministic(self):
        a = FaultPlan(seed=1).server_crash(5.0, 0, 2.0)
        b = FaultPlan(seed=1).server_crash(5.0, 0, 2.0)
        assert a.signature() == b.signature()
        assert json.loads(a.signature())["seed"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0).server_crash(-1.0, 0, 5.0)
        with pytest.raises(ValueError):
            FaultPlan(seed=0).meter_dropout(0.0, 0.0)
        with pytest.raises(ValueError):
            FaultPlan(seed=0).battery_fade(0.0, 1.5)


# ----------------------------------------------------------------------
# Server crash / recover
# ----------------------------------------------------------------------


class TestServerCrash:
    def test_fail_sheds_in_flight_as_fault_outcomes(self, rack, collector):
        server = rack.servers[0]
        for i in range(3):
            assert server.submit(make_request(i, rtype=COLLA_FILT))
        assert server.in_system == 3
        server.fail()
        assert server.failed and not server.healthy
        assert server.in_system == 0
        outcomes = [r.outcome for r in collector.records]
        assert outcomes == [RequestOutcome.FAILED_SERVER] * 3
        assert all(o in FAULT_OUTCOMES for o in outcomes)

    def test_fail_routes_queue_through_shed_sink(self, rack, collector):
        server = rack.servers[0]
        # More requests than workers: the excess sits in the queue.
        for i in range(server.num_workers + 4):
            server.submit(make_request(i, rtype=COLLA_FILT))
        shed = []
        server.fail(shed_sink=shed.append)
        # Queued requests go to the sink; in-service ones are lost.
        assert len(shed) == 4
        assert len(collector.records) == server.num_workers

    def test_failed_server_draws_no_power_and_rejects(self, rack):
        server = rack.servers[0]
        idle_w = server.current_power()
        assert idle_w > 0
        server.fail()
        assert server.current_power() == 0.0
        assert not server.submit(make_request())

    def test_recover_restores_service(self, rack):
        server = rack.servers[0]
        server.fail()
        server.recover()
        assert server.healthy
        assert server.submit(make_request())
        assert server.crashes == 1

    def test_rack_health_views(self, rack):
        rack.servers[1].fail()
        assert rack.num_healthy == 3
        assert rack.servers[1] not in rack.healthy_servers()


# ----------------------------------------------------------------------
# NLB degradation: healthy rotation, retry, no-backend drops
# ----------------------------------------------------------------------


def make_nlb(engine, rack, collector, **kwargs):
    return NetworkLoadBalancer(
        servers=rack.servers,
        drop_sink=collector.sink,
        now=lambda: engine.now,
        **kwargs,
    )


class TestNLBDegradation:
    def test_crashed_server_skipped_in_rotation(self, engine, rack, collector):
        nlb = make_nlb(engine, rack, collector)
        rack.servers[0].fail()
        for i in range(6):
            assert nlb.dispatch(make_request(i))
        assert rack.servers[0].in_system == 0
        assert sum(s.in_system for s in rack.servers[1:]) == 6

    def test_no_backend_without_retry_is_fault_drop(
        self, engine, rack, collector
    ):
        nlb = make_nlb(engine, rack, collector)
        for server in rack.servers:
            server.fail()
        assert not nlb.dispatch(make_request())
        record = collector.records[-1]
        assert record.outcome is RequestOutcome.DROPPED_NO_BACKEND
        assert record.outcome in FAULT_OUTCOMES

    def test_retry_succeeds_after_recovery(self, engine, rack, collector):
        nlb = make_nlb(
            engine,
            rack,
            collector,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.5),
            scheduler=engine.schedule,
        )
        for server in rack.servers:
            server.fail()
        assert not nlb.dispatch(make_request())  # deferred, not dropped
        engine.schedule(0.3, rack.servers[2].recover)
        engine.run(until=5.0)
        assert nlb.forwarded == 1
        assert rack.servers[2].in_system >= 0  # reached the queue
        assert not any(
            r.outcome is RequestOutcome.DROPPED_NO_BACKEND
            for r in collector.records
        )

    def test_retries_exhausted_drops_no_backend(self, engine, rack, collector):
        nlb = make_nlb(
            engine,
            rack,
            collector,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.25),
            scheduler=engine.schedule,
        )
        for server in rack.servers:
            server.fail()
        nlb.dispatch(make_request())
        engine.run(until=10.0)
        assert nlb.dropped == 1
        assert collector.records[-1].outcome is RequestOutcome.DROPPED_NO_BACKEND

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, max_delay_s=0.5)
        delays = [policy.delay_for(k) for k in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_terminal_fires_for_no_backend_drop(self, engine, rack, collector):
        nlb = make_nlb(engine, rack, collector)
        for server in rack.servers:
            server.fail()
        seen = []
        request = make_request()
        request.on_terminal = lambda r, outcome, t: seen.append(outcome)
        nlb.dispatch(request)
        assert seen == [RequestOutcome.DROPPED_NO_BACKEND]


# ----------------------------------------------------------------------
# Power sensing: faults and the bounded-staleness fallback
# ----------------------------------------------------------------------


class TestPowerSensor:
    def test_unfaulted_sensor_is_exact(self, rack):
        sensor = FaultyPowerSensor(rack, rng=np.random.default_rng(0))
        assert sensor.read(0.0).power_w == rack.total_power()
        assert sensor.faulted_reads == 0

    def test_dropout_marks_reading_not_ok(self, rack):
        sensor = FaultyPowerSensor(rack)
        sensor.start_dropout(0.0, 5.0)
        assert not sensor.read(2.0).ok
        assert sensor.read(6.0).ok  # window over

    def test_stale_freezes_the_start_reading(self, rack):
        sensor = FaultyPowerSensor(rack)
        sensor.start_stale(1.0, 10.0)
        frozen = sensor.read(5.0)
        assert frozen.ok and frozen.time_s == 1.0
        rack.servers[0].set_level(0)  # change the truth
        again = sensor.read(8.0)
        assert again.power_w == frozen.power_w

    def test_noise_is_seed_deterministic(self, rack):
        a = FaultyPowerSensor(rack, rng=np.random.default_rng(7))
        b = FaultyPowerSensor(rack, rng=np.random.default_rng(7))
        a.set_noise(sigma_w=5.0, bias_w=2.0)
        b.set_noise(sigma_w=5.0, bias_w=2.0)
        assert [a.read(t).power_w for t in range(5)] == [
            b.read(t).power_w for t in range(5)
        ]

    def test_scheme_falls_back_then_assumes_worst_case(self, engine, rack):
        scheme = NullScheme()
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        sensor = FaultyPowerSensor(rack, rng=np.random.default_rng(0))
        scheme.attach_power_sensor(sensor, staleness_bound_s=5.0)
        observed = []

        def observe():
            observed.append((engine.now, scheme.current_power()))

        engine.schedule_at(0.0, observe)  # good read: last-known-good set
        engine.schedule_at(
            0.5, lambda: sensor.start_dropout(engine.now, 30.0)
        )
        engine.schedule_at(3.0, observe)  # within bound: last-known-good
        engine.schedule_at(9.0, observe)  # beyond bound: worst case
        engine.run(until=10.0)

        truth_w = rack.total_power()
        assert observed[0] == (0.0, truth_w)
        assert observed[1] == (3.0, truth_w)  # stale fallback
        assert observed[2] == (9.0, rack.nameplate_w)  # worst case
        counters = engine.obs.counters
        assert counters.get("power.sensor_stale_fallbacks") == 1
        assert counters.get("power.sensor_worst_case_fallbacks") == 1


# ----------------------------------------------------------------------
# Battery degradation
# ----------------------------------------------------------------------


class TestBatteryDegradation:
    def test_capacity_fade_clamps_soc(self):
        battery = Battery(capacity_j=1000.0, max_discharge_w=100.0, max_charge_w=50.0)
        battery.apply_capacity_fade(0.4)
        assert battery.capacity_j == pytest.approx(400.0)
        assert battery.soc_j == pytest.approx(400.0)
        assert battery.soc_fraction == pytest.approx(1.0)

    def test_stuck_battery_refuses_flows(self):
        battery = Battery(
            capacity_j=1000.0,
            max_discharge_w=100.0,
            max_charge_w=50.0,
            initial_soc=0.5,
        )
        battery.set_stuck(True)
        assert battery.discharge(50.0, 1.0) == 0.0
        assert battery.charge(50.0, 1.0) == 0.0
        assert battery.soc_j == pytest.approx(500.0)
        battery.set_stuck(False)
        assert battery.discharge(50.0, 1.0) == pytest.approx(50.0)


# ----------------------------------------------------------------------
# Injector end-to-end
# ----------------------------------------------------------------------


def faulted_sim(seed=3, plan=None):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed),
        scheme=NullScheme(),
    )
    if plan is None:
        plan = (
            FaultPlan(seed=seed)
            .server_crash(5.0, 1, 4.0)
            .meter_noise(2.0, sigma_w=5.0)
            .meter_dropout(12.0, 3.0)
        )
    injector = FaultInjector(sim, plan)
    injector.arm()
    sim.add_normal_traffic(rate_rps=60.0)
    return sim, injector


class TestFaultInjector:
    def test_events_fire_and_server_recovers(self):
        sim, injector = faulted_sim()
        sim.run(20.0)
        assert injector.injected == {
            "server_crash": 1,
            "meter_noise": 1,
            "meter_dropout": 1,
        }
        assert sim.rack.servers[1].crashes == 1
        assert sim.rack.servers[1].healthy  # recovered at t=9
        counters = sim.obs.counters
        assert counters.get("faults.injected.server_crash") == 1
        assert counters.get("cluster.server_failures") == 1
        assert counters.get("cluster.server_recoveries") == 1

    def test_crash_losses_attributed_as_fault_drops(self):
        sim, _ = faulted_sim()
        # Saturate the rack with heavy requests so the crash at t=5 s
        # catches some of them in service (those are lost to the fault).
        sim.add_flood(
            mix=uniform_mix((COLLA_FILT,)),
            rate_rps=150.0,
            num_agents=8,
            start_s=0.0,
        )
        sim.run(20.0)
        report = availability(sim.collector.records, sla_s=0.5)
        attribution = sim.collector.drop_attribution()
        assert report.dropped_fault == attribution["dropped_fault"]
        assert report.dropped_policy == attribution["dropped_policy"]
        assert report.dropped == report.dropped_fault + report.dropped_policy
        # The crash happened while requests were in service.
        assert attribution["dropped_fault"] > 0

    def test_pdu_trip_fails_whole_rack_then_restores(self):
        plan = FaultPlan(seed=0).pdu_trip(5.0, 3.0)
        sim, injector = faulted_sim(plan=plan)
        probes = []
        sim.engine.schedule_at(
            6.0, lambda: probes.append(sim.rack.num_healthy)
        )
        sim.engine.schedule_at(
            10.0, lambda: probes.append(sim.rack.num_healthy)
        )
        sim.run(12.0)
        assert probes == [0, 4]
        assert injector.injected == {"pdu_trip": 1}

    def test_arm_twice_rejected(self):
        sim, injector = faulted_sim()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_arm_rejects_crash_target_outside_the_rack(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1), scheme=NullScheme())
        plan = FaultPlan(seed=1).meter_noise(2.0, 1.0).server_crash(5.0, 9, 3.0)
        with pytest.raises(ValueError, match=r"event 1 \(server_crash, target 9\)"):
            FaultInjector(sim, plan).arm()
        assert sim.scheme.power_sensor is None

    @pytest.mark.parametrize(
        "topology, node", [("flat", "row0"), ("tree-small", "row7")]
    )
    def test_arm_rejects_trip_of_a_node_the_topology_lacks(self, topology, node):
        config = SimulationConfig.for_topology(topology, seed=1)
        sim = DataCenterSimulation(config, scheme=NullScheme())
        plan = FaultPlan(seed=1).pdu_trip(5.0, 3.0, node=node)
        with pytest.raises(ValueError, match=f"event 0 \\(pdu_trip, target '{node}'\\)"):
            FaultInjector(sim, plan).arm()
        assert sim.scheme.power_sensor is None

    def test_arm_rejects_past_event_and_schedules_nothing(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1), scheme=NullScheme())
        sim.add_normal_traffic(rate_rps=40.0)
        sim.run(5.0)
        pending = sim.engine.pending()
        plan = FaultPlan(seed=1).meter_noise(20.0, 1.0).server_crash(1.0, 0, 2.0)
        injector = FaultInjector(sim, plan)
        for _ in range(2):  # still unarmed after the first refusal
            with pytest.raises(ValueError, match=r"event 1 \(server_crash"):
                injector.arm()
        assert sim.engine.pending() == pending
        assert sim.scheme.power_sensor is None

    @pytest.mark.parametrize(
        "kind, args", [("battery_fade", (1.0, 0.5)), ("battery_stuck", (2.0, 3.0))]
    )
    def test_arm_rejects_battery_fault_without_a_battery(self, kind, args):
        config = SimulationConfig(seed=1, use_battery=False)
        sim = DataCenterSimulation(config, scheme=NullScheme())
        pending = sim.engine.pending()
        plan = getattr(FaultPlan(seed=1), kind)(*args)
        with pytest.raises(ValueError, match=rf"event 0 \({kind}"):
            FaultInjector(sim, plan).arm()
        assert sim.engine.pending() == pending
        assert sim.scheme.power_sensor is None

    def test_same_seed_faulted_runs_identical(self):
        def signature():
            sim, _ = faulted_sim(seed=11)
            sim.run(20.0)
            manifest = sim.run_manifest()
            return manifest.deterministic_hash()

        assert signature() == signature()


# ----------------------------------------------------------------------
# Chaos cells and payload schema
# ----------------------------------------------------------------------


class TestChaos:
    def test_chaos_cell_deterministic_and_attributed(self):
        kwargs = dict(
            scheme="capping",
            seed=2,
            budget="LOW",
            num_servers=4,
            duration_s=40.0,
        )
        a = chaos_cell(**kwargs)
        b = chaos_cell(**kwargs)
        assert a == b
        assert a["dropped"] == a["dropped_policy"] + a["dropped_fault"]
        assert a["faults_injected"]["server_crash"] == 1
        assert json.loads(a["fault_plan_signature"])["seed"] == 2
        # Strict JSON: NaN latencies must have become nulls.
        json.dumps(a, allow_nan=False)

    def test_validate_chaos_payload_rejects_bad_attribution(self):
        cell = chaos_cell(
            scheme="capping", seed=2, duration_s=40.0, num_servers=4
        )
        payload = {
            "schema": "repro-chaos/1",
            "name": "t",
            "mode": "smoke",
            "version": "0",
            "seed": 2,
            "config_hash": "x",
            "scenario": {},
            "cells": [dict(cell)],
            "counters": {},
        }
        assert validate_chaos_payload(payload) == []
        payload["cells"][0]["dropped_fault"] = (
            payload["cells"][0]["dropped_fault"] + 1
        )
        problems = validate_chaos_payload(payload)
        assert any("does not add up" in p for p in problems)

    def test_validate_chaos_payload_requires_schema(self):
        assert validate_chaos_payload([]) != []
        assert any(
            "schema" in p
            for p in validate_chaos_payload(
                {
                    "schema": "wrong/9",
                    "name": "t",
                    "mode": "smoke",
                    "version": "0",
                    "seed": 0,
                    "config_hash": "x",
                    "scenario": {},
                    "cells": [],
                    "counters": {},
                }
            )
        )
