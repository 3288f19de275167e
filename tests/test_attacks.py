"""Unit tests for the flood-attack models and the Fig. 3 taxonomy."""

import pytest

from repro.network import SourceRegistry
from repro.workloads import (
    ATTACK_SCENARIOS,
    COLLA_FILT,
    POWER_CLASSES,
    VOLUME_DOS,
    TrafficClass,
)
from repro.workloads.attacks import make_flood
from repro.workloads.generator import ClosedLoopGenerator, TrafficGenerator


@pytest.fixture
def registry():
    return SourceRegistry()


class TestMakeFlood:
    def test_closed_loop_by_default(self, engine, rng, registry):
        gen = make_flood(
            engine, lambda r: True, registry, rng, mix=COLLA_FILT, rate_rps=50.0
        )
        assert isinstance(gen, ClosedLoopGenerator)

    def test_open_loop_option(self, engine, rng, registry):
        gen = make_flood(
            engine,
            lambda r: True,
            registry,
            rng,
            mix=COLLA_FILT,
            rate_rps=50.0,
            closed_loop=False,
        )
        assert isinstance(gen, TrafficGenerator)

    def test_agents_allocated(self, engine, rng, registry):
        make_flood(
            engine,
            lambda r: True,
            registry,
            rng,
            mix=COLLA_FILT,
            rate_rps=10.0,
            num_agents=7,
            label="bots",
        )
        assert registry.get("bots").size == 7
        assert registry.get("bots").traffic_class is TrafficClass.ATTACK

    def test_open_loop_spreads_rate_across_agents(self, engine, rng, registry):
        received = []
        gen = make_flood(
            engine,
            lambda r: received.append(r) or True,
            registry,
            rng,
            mix=COLLA_FILT,
            rate_rps=100.0,
            num_agents=10,
            closed_loop=False,
        )
        gen.start()
        engine.run(until=5.0)
        per_source = {}
        for r in received:
            per_source[r.source_id] = per_source.get(r.source_id, 0) + 1
        # 100 rps over 10 agents for 5 s → ~50 requests per agent.
        assert len(per_source) == 10
        assert all(40 <= c <= 60 for c in per_source.values())

    def test_invalid_rate_rejected(self, engine, rng, registry):
        with pytest.raises(ValueError):
            make_flood(
                engine, lambda r: True, registry, rng, mix=COLLA_FILT, rate_rps=0.0
            )


class TestScenarioCatalog:
    def test_seven_scenarios_defined(self):
        assert len(ATTACK_SCENARIOS) == 7

    def test_power_classes_partition_scenarios(self):
        named = set()
        for names in POWER_CLASSES.values():
            named.update(names)
        assert named == set(ATTACK_SCENARIOS)

    def test_application_layer_floods_are_high_power(self):
        assert "http-flood" in POWER_CLASSES["high"]
        assert "dns-flood" in POWER_CLASSES["high"]

    def test_volume_floods_are_low_power(self):
        for name in ("syn-flood", "udp-flood", "icmp-flood"):
            assert name in POWER_CLASSES["low"]

    def test_volume_scenarios_use_volume_type(self):
        for name in ("syn-flood", "udp-flood", "icmp-flood"):
            mix = ATTACK_SCENARIOS[name].mix
            assert mix.types == (VOLUME_DOS,)

    def test_volume_rates_exceed_app_layer_rates(self):
        # Network-layer floods achieve far higher packet rates.
        app = ATTACK_SCENARIOS["http-flood"].default_rate_rps
        vol = ATTACK_SCENARIOS["udp-flood"].default_rate_rps
        assert vol > 5 * app

    def test_build_returns_generator_matching_layer(self, engine, rng, registry):
        http = ATTACK_SCENARIOS["http-flood"].build(
            engine, lambda r: True, registry, rng
        )
        assert isinstance(http, ClosedLoopGenerator)
        syn = ATTACK_SCENARIOS["syn-flood"].build(
            engine, lambda r: True, registry, rng
        )
        assert isinstance(syn, TrafficGenerator)

    def test_build_rate_override(self, engine, rng, registry):
        gen = ATTACK_SCENARIOS["udp-flood"].build(
            engine, lambda r: True, registry, rng, rate_rps=123.0
        )
        assert gen.current_rate == pytest.approx(123.0)
