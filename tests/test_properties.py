"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import EmpiricalCDF
from repro.cluster import FrequencyLadder, ServerPowerModel
from repro.core import DPMPlanner
from repro.metrics import LatencyStats
from repro.power import Battery, PowerTokenBucket
from repro.sim import EventQueue
from repro.workloads import ALL_TYPES

# ----------------------------------------------------------------------
# Frequency ladder
# ----------------------------------------------------------------------

levels = st.integers(min_value=0, max_value=12)
steps = st.integers(min_value=0, max_value=20)


class TestLadderProperties:
    @given(level=levels, down=steps, up=steps)
    def test_stepping_stays_on_ladder(self, level, down, up):
        ladder = FrequencyLadder()
        out = ladder.step_up(ladder.step_down(level, down), up)
        assert 0 <= out <= ladder.max_level

    @given(level=levels)
    def test_ratio_bounds(self, level):
        ladder = FrequencyLadder()
        assert 0.5 <= ladder.ratio(level) <= 1.0

    @given(a=levels, b=levels)
    def test_ratio_monotone(self, a, b):
        ladder = FrequencyLadder()
        if a <= b:
            assert ladder.ratio(a) <= ladder.ratio(b)


# ----------------------------------------------------------------------
# Power model
# ----------------------------------------------------------------------

ratios = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
type_idx = st.integers(min_value=0, max_value=len(ALL_TYPES) - 1)


class TestPowerModelProperties:
    @given(r=ratios, idx=type_idx, n=st.integers(min_value=0, max_value=8))
    def test_power_within_physical_bounds(self, r, idx, n):
        model = ServerPowerModel()
        rtype = ALL_TYPES[idx]
        # The per-type count form every server evaluates.
        power = model.power_from_counts(
            [n], [rtype.dynamic_power_factor(r, alpha=model.alpha)], model.idle_power(r)
        )
        assert model.idle_power(r) <= power <= model.nameplate_w + 1e-9

    @given(r1=ratios, r2=ratios, idx=type_idx)
    def test_power_monotone_in_frequency(self, r1, r2, idx):
        assume(r1 <= r2)
        model = ServerPowerModel()
        rtype = ALL_TYPES[idx]
        assert model.full_load_power(rtype, r1) <= model.full_load_power(
            rtype, r2
        ) + 1e-9

    @given(r=ratios, idx=type_idx)
    def test_service_time_never_faster_than_nominal(self, r, idx):
        rtype = ALL_TYPES[idx]
        assert rtype.service_time(r) >= rtype.base_service_s - 1e-12

    @given(r=ratios, idx=type_idx)
    def test_speedup_bounds(self, r, idx):
        rtype = ALL_TYPES[idx]
        assert 0.0 < rtype.speedup(r) <= 1.0


# ----------------------------------------------------------------------
# Battery
# ----------------------------------------------------------------------

flows = st.lists(
    st.tuples(
        st.sampled_from(["charge", "discharge"]),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    ),
    max_size=50,
)


class TestBatteryProperties:
    @given(ops=flows)
    def test_soc_always_within_capacity(self, ops):
        battery = Battery(1000.0, 100.0, 50.0, initial_soc=0.5)
        for op, power, dt in ops:
            if op == "charge":
                battery.charge(power, dt)
            else:
                battery.discharge(power, dt)
            assert -1e-6 <= battery.soc_j <= battery.capacity_j + 1e-6

    @given(ops=flows)
    def test_energy_conservation(self, ops):
        """soc = initial + stored(charged) − delivered, exactly."""
        battery = Battery(1000.0, 100.0, 50.0, efficiency=0.9, initial_soc=0.5)
        initial = battery.soc_j
        for op, power, dt in ops:
            if op == "charge":
                battery.charge(power, dt)
            else:
                battery.discharge(power, dt)
        stored = battery.absorbed_grid_j * battery.efficiency
        assert battery.soc_j == pytest.approx(
            initial + stored - battery.delivered_j, abs=1e-6
        )

    @given(
        power=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        dt=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    def test_discharge_never_exceeds_request_or_limit(self, power, dt):
        battery = Battery(1000.0, 100.0, 50.0)
        delivered = battery.discharge(power, dt)
        assert delivered <= min(power, battery.max_discharge_w) + 1e-9


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------


class TestTokenBucketProperties:
    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False), max_size=60
        ),
        refill=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
        burst=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_tokens_never_negative_or_above_capacity(self, costs, refill, burst):
        bucket = PowerTokenBucket(refill, burst, energy_cost_fn=lambda r: r)
        t = 0.0
        for cost in costs:
            t += 0.01

            class FakeReq:
                rtype = None

            bucket.energy_cost_fn = lambda r, c=cost: c
            bucket.admit(FakeReq(), now=t)
            assert -1e-9 <= bucket.tokens_j <= bucket.capacity_j + 1e-9

    @given(
        n=st.integers(min_value=1, max_value=100),
        cost=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    )
    def test_admitted_energy_bounded_by_refill_plus_burst(self, n, cost):
        """Over any horizon the admitted joules never exceed
        capacity + refill·T — the shaper's defining guarantee."""
        refill, burst = 10.0, 2.0
        bucket = PowerTokenBucket(refill, burst, energy_cost_fn=lambda r: cost)
        horizon = 1.0

        class FakeReq:
            rtype = None

        admitted_j = 0.0
        for i in range(n):
            now = horizon * i / n
            if bucket.admit(FakeReq(), now=now):
                admitted_j += cost
        assert admitted_j <= bucket.capacity_j + refill * horizon + cost


# ----------------------------------------------------------------------
# DPM planner
# ----------------------------------------------------------------------


class TestDPMProperties:
    @given(
        cap=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
        suspect_w=st.floats(min_value=0.1, max_value=20.0),
        innocent_w=st.floats(min_value=0.1, max_value=20.0),
        base=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_feasible_plans_satisfy_cap(self, cap, suspect_w, innocent_w, base):
        planner = DPMPlanner(max_level=12, hysteresis=0.0)
        predict = lambda p, q: base + suspect_w * p + innocent_w * q
        plan = planner.plan(cap, predict, 12, 12)
        if plan.feasible:
            assert predict(plan.suspect_level, plan.innocent_level) <= cap + 1e-9
        else:
            # Infeasible means even the deepest throttle violates.
            assert predict(0, 0) > cap

    @given(
        cap=st.floats(min_value=100.0, max_value=600.0, allow_nan=False),
        suspect_w=st.floats(min_value=0.1, max_value=20.0),
        innocent_w=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_innocent_only_degraded_when_necessary(self, cap, suspect_w, innocent_w):
        planner = DPMPlanner(max_level=12, hysteresis=0.0)
        predict = lambda p, q: 50.0 + suspect_w * p + innocent_w * q
        plan = planner.plan(cap, predict, 12, 12)
        if plan.innocent_level < 12:
            assert predict(0, 12) > cap


# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------


class TestEventQueueProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=100
        )
    )
    def test_pops_in_nondecreasing_time_order(self, times):
        q = EventQueue()
        for t in times:
            q.push(t, lambda: None)
        popped = []
        while True:
            e = q.pop()
            if e is None:
                break
            popped.append(e[0])
        assert popped == sorted(popped)
        assert len(popped) == len(times)


# ----------------------------------------------------------------------
# CDF / latency statistics
# ----------------------------------------------------------------------

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


class TestStatisticsProperties:
    @given(data=samples)
    def test_cdf_monotone_and_bounded(self, data):
        cdf = EmpiricalCDF(data)
        xs = np.linspace(min(data) - 1, max(data) + 1, 50)
        ys = cdf.evaluate(xs)
        assert np.all(np.diff(ys) >= 0)
        assert ys[0] >= 0.0 and ys[-1] == 1.0

    @given(data=samples)
    def test_latency_percentile_ordering(self, data):
        stats = LatencyStats.from_times(data)
        assert (
            stats.minimum
            <= stats.p50
            <= stats.p90
            <= stats.p95
            <= stats.p99
            <= stats.maximum
        )

    @given(data=samples)
    def test_mean_within_min_max(self, data):
        stats = LatencyStats.from_times(data)
        assert stats.minimum - 1e-9 <= stats.mean <= stats.maximum + 1e-9


# ----------------------------------------------------------------------
# Server work conservation under arbitrary DVFS schedules
# ----------------------------------------------------------------------


class TestServerWorkConservation:
    @given(
        levels=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
        gaps=st.lists(
            st.floats(min_value=0.001, max_value=0.05, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_completion_time_equals_integrated_speed(self, levels, gaps):
        """Whatever DVFS schedule is applied mid-service, the request
        finishes exactly when its integrated speed equals its work."""
        from dataclasses import replace

        import numpy as np

        from repro.cluster import Server
        from repro.network import Request
        from repro.sim import EventEngine
        from repro.workloads import COLLA_FILT, TrafficClass

        engine = EventEngine()
        server = Server(0, engine, np.random.default_rng(0))
        rtype = replace(COLLA_FILT, service_cv=0.0)
        done = []
        request = Request(rtype, 0, TrafficClass.NORMAL, 0.0)
        request.on_terminal = lambda r, o, t: done.append(t)
        server.submit(request)
        # Apply the random schedule at cumulative offsets.
        t = 0.0
        schedule = []
        for level, gap in zip(levels, gaps):
            t += gap
            schedule.append((t, level))
            engine.schedule_at(t, lambda lv=level: server.set_level(lv))
        engine.run()
        assert len(done) == 1
        finish = done[0]

        # Reconstruct: integrate speedup over the piecewise schedule.
        ladder = server.ladder
        work = rtype.base_service_s
        now, level, acc = 0.0, 12, 0.0
        points = [p for p in schedule if p[0] < finish] + [(finish, None)]
        for when, new_level in points:
            speed = rtype.speedup(ladder.ratio(level))
            acc += (when - now) * speed
            now = when
            if new_level is not None:
                level = new_level
        assert acc == pytest.approx(work, rel=1e-9)


# ----------------------------------------------------------------------
# Availability partition
# ----------------------------------------------------------------------


class TestAvailabilityProperties:
    @given(
        rts=st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False), max_size=60
        ),
        drops=st.integers(min_value=0, max_value=20),
        sla=st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
    )
    def test_partition_sums_to_offered(self, rts, drops, sla):
        from repro.metrics import availability
        from repro.network import CompletionRecord, Request, RequestOutcome
        from repro.workloads import TEXT_CONT, TrafficClass

        records = []
        for rt in rts:
            req = Request(TEXT_CONT, 0, TrafficClass.NORMAL, 0.0)
            records.append(CompletionRecord(req, RequestOutcome.COMPLETED, rt))
        for _ in range(drops):
            req = Request(TEXT_CONT, 0, TrafficClass.NORMAL, 0.0)
            records.append(
                CompletionRecord(req, RequestOutcome.DROPPED_TOKEN, 0.0)
            )
        report = availability(records, sla_s=sla)
        assert report.offered == len(records)
        assert (
            report.served_within_sla + report.served_late + report.dropped
            == report.offered
        )
        assert 0.0 <= report.availability <= 1.0
        assert 0.0 <= report.drop_fraction <= 1.0
