"""Unit tests for the open-loop traffic generator."""

import pytest

from repro.network import SourceRegistry
from repro.sim.engine import EventEngine
from repro.trace import ConstantRateProcess, PoissonProcess
from repro.workloads import (
    COLLA_FILT,
    TEXT_CONT,
    RequestMix,
    TrafficClass,
)
from repro.workloads.generator import TrafficGenerator


@pytest.fixture
def registry():
    return SourceRegistry()


def make_generator(engine, rng, registry, rate=10.0, agents=4, mix=TEXT_CONT):
    pool = registry.allocate("gen", TrafficClass.ATTACK, agents)
    received = []
    gen = TrafficGenerator(
        engine=engine,
        dispatch=lambda r: received.append(r) or True,
        rng=rng,
        source_pool=pool,
        mix=mix,
        process=ConstantRateProcess(rate),
        label="gen",
    )
    return gen, received


class TestGeneration:
    def test_rate_is_respected(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, rate=10.0)
        gen.start()
        engine.run(until=10.0)
        assert len(received) == pytest.approx(100, abs=2)

    def test_sources_cycle_round_robin(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, rate=10.0, agents=4)
        gen.start()
        engine.run(until=2.0)
        sources = [r.source_id for r in received]
        assert sources[:8] == [
            sources[0],
            sources[0] + 1,
            sources[0] + 2,
            sources[0] + 3,
        ] * 2

    def test_traffic_class_tagging(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry)
        gen.start()
        engine.run(until=1.0)
        assert all(r.traffic_class is TrafficClass.ATTACK for r in received)

    def test_single_type_wrapped_as_mix(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, mix=COLLA_FILT)
        gen.start()
        engine.run(until=1.0)
        assert all(r.rtype is COLLA_FILT for r in received)

    def test_mix_sampling(self, engine, rng, registry):
        mix = RequestMix({COLLA_FILT: 0.5, TEXT_CONT: 0.5})
        gen, received = make_generator(engine, rng, registry, rate=100.0, mix=mix)
        gen.start()
        engine.run(until=10.0)
        names = {r.rtype.name for r in received}
        assert names == {"colla-filt", "text-cont"}


class TestLifecycle:
    def test_start_delay(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, rate=10.0)
        gen.start(delay_s=5.0)
        engine.run(until=5.05)
        assert len(received) == 0
        engine.run(until=6.0)
        assert len(received) > 0

    def test_stop_halts_generation(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, rate=10.0)
        gen.start()
        engine.schedule(2.0, gen.stop)
        engine.run(until=10.0)
        assert len(received) == pytest.approx(20, abs=2)

    def test_run_window(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, rate=10.0)
        gen.run_window(3.0, 5.0)
        engine.run(until=10.0)
        times = [r.arrival_time_s for r in received]
        assert all(3.0 <= t <= 5.0 for t in times)
        assert len(times) == pytest.approx(20, abs=2)

    def test_double_start_rejected(self, engine, rng, registry):
        gen, _ = make_generator(engine, rng, registry)
        gen.start()
        with pytest.raises(RuntimeError):
            gen.start()

    def test_set_rate_changes_pacing(self, engine, rng, registry):
        gen, received = make_generator(engine, rng, registry, rate=10.0)
        gen.start()

        def speed_up():
            gen.process = ConstantRateProcess(100.0)

        engine.schedule(5.0, speed_up)
        engine.run(until=10.0)
        early = sum(1 for r in received if r.arrival_time_s < 5.0)
        late = sum(1 for r in received if r.arrival_time_s >= 5.0)
        assert early == pytest.approx(50, abs=3)
        assert late == pytest.approx(500, abs=10)

    def test_generated_and_accepted_counters(self, engine, rng, registry):
        pool = registry.allocate("g2", TrafficClass.NORMAL, 1)
        flags = iter([True, False, True, True])
        gen = TrafficGenerator(
            engine,
            lambda r: next(flags, True),
            rng,
            pool,
            TEXT_CONT,
            ConstantRateProcess(10.0),
        )
        gen.start()
        engine.run(until=0.45)
        assert gen.generated == 4
        assert gen.accepted == 3


class _SpyDrain:
    """Fluid drain stand-in recording when its horizon is consulted."""

    def __init__(self, horizon_s):
        self.horizon_s = horizon_s
        self.queries = []
        self.absorbed = []

    def horizon(self, now):
        self.queries.append(now)
        return self.horizon_s

    def absorb(self, generator, count, time_s):
        self.absorbed.append((count, time_s))


class TestFluidSegmentBounds:
    """The segment bound checks the cheap limits before the drain."""

    RATE = 1000.0  # 4 expected arrivals need 4 ms of room

    def _generator(self, rng, registry, drain):
        engine = EventEngine(mode="batched", fluid=True)
        pool = registry.allocate("flood", TrafficClass.ATTACK, 4)
        gen = TrafficGenerator(
            engine=engine,
            dispatch=lambda r: True,
            rng=rng,
            source_pool=pool,
            mix=TEXT_CONT,
            process=PoissonProcess(self.RATE),
            label="flood",
        )
        gen.fluid_drain = drain
        return engine, gen

    def _try_at_start(self, engine, gen, until):
        results = []
        engine.schedule(0.0, lambda: results.append(gen._try_fluid_segment()))
        engine.run(until=until)
        return results

    def test_horizon_not_consulted_when_next_event_too_close(self, rng, registry):
        drain = _SpyDrain(horizon_s=100.0)
        engine, gen = self._generator(rng, registry, drain)
        engine.schedule(0.001, lambda: None)
        assert self._try_at_start(engine, gen, until=10.0) == [False]
        assert drain.queries == []

    def test_horizon_not_consulted_when_deadline_too_close(self, rng, registry):
        drain = _SpyDrain(horizon_s=100.0)
        engine, gen = self._generator(rng, registry, drain)
        assert self._try_at_start(engine, gen, until=0.002) == [False]
        assert drain.queries == []

    def test_horizon_bounds_segment_when_room_allows(self, rng, registry):
        drain = _SpyDrain(horizon_s=0.5)
        engine, gen = self._generator(rng, registry, drain)
        engine.schedule(2.0, lambda: None)
        assert self._try_at_start(engine, gen, until=10.0) == [True]
        assert drain.queries == [0.0]
        ((count, time_s),) = drain.absorbed
        assert time_s == 0.5
        assert gen.generated == count > 0

    def test_failed_proof_still_declines(self, rng, registry):
        drain = _SpyDrain(horizon_s=None)
        engine, gen = self._generator(rng, registry, drain)
        assert self._try_at_start(engine, gen, until=10.0) == [False]
        assert drain.queries == [0.0]
