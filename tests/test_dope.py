"""Unit tests for the adaptive DOPE attacker (paper Fig. 12)."""

import pytest

from repro.cluster import Rack
from repro.network import NetworkLoadBalancer, RateLimitFirewall, SourceRegistry
from repro.workloads import AttackerState, DopeAttacker


@pytest.fixture
def registry():
    return SourceRegistry()


def make_attacker(engine, rng, registry, dispatch=None, **kwargs):
    kwargs.setdefault("initial_rate_rps", 50.0)
    kwargs.setdefault("rate_step_rps", 50.0)
    kwargs.setdefault("max_rate_rps", 500.0)
    kwargs.setdefault("num_agents", 10)
    kwargs.setdefault("adjust_interval_s", 5.0)
    return DopeAttacker(
        engine,
        dispatch or (lambda r: True),
        registry,
        rng,
        **kwargs,
    )


class TestProbing:
    def test_ramps_when_ineffective_and_undetected(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry)
        attacker.start()
        engine.run(until=26.0)  # 5 adjustments
        assert attacker.rate_rps == pytest.approx(300.0)
        assert attacker.state is AttackerState.PROBING

    def test_rate_capped_at_max(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry, max_rate_rps=120.0)
        attacker.start()
        engine.run(until=60.0)
        assert attacker.rate_rps == pytest.approx(120.0)

    def test_converges_on_effect_signal(self, engine, rng, registry):
        attacker = make_attacker(
            engine, rng, registry, effect_signal=lambda: True
        )
        attacker.start()
        engine.run(until=30.0)
        assert attacker.state is AttackerState.CONVERGED
        # Converged: the rate holds at the first effective level.
        assert attacker.rate_rps == pytest.approx(50.0)
        assert attacker.stats.converged

    def test_adjustment_history_recorded(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry)
        attacker.start()
        engine.run(until=16.0)
        assert len(attacker.stats.adjustments) == 3
        times = [a.time_s for a in attacker.stats.adjustments]
        assert times == [5.0, 10.0, 15.0]


class TestBackoff:
    def test_detection_triggers_multiplicative_backoff(self, engine, rng, registry):
        detected = {"flag": False}
        attacker = make_attacker(
            engine,
            rng,
            registry,
            detection_signal=lambda: detected["flag"],
            backoff_factor=0.5,
        )
        attacker.start()
        engine.run(until=11.0)  # two probes: 100 → 150
        assert attacker.rate_rps == pytest.approx(150.0)
        detected["flag"] = True
        engine.run(until=16.0)
        assert attacker.rate_rps == pytest.approx(75.0)
        assert attacker.state is AttackerState.BACKING_OFF

    def test_firewall_detection_signal_default(self, engine, rng, registry):
        fw = RateLimitFirewall(threshold_rps=10.0, poll_interval_s=1.0)
        fw.attach(engine)
        attacker = make_attacker(engine, rng, registry, firewall=fw)
        # Ban one of the attacker's own sources.
        victim_source = attacker.pool.first_id
        for _ in range(100):
            fw.admit(victim_source)
        engine.run(until=1.0)
        assert attacker._firewall_detection()

    def test_firewall_detection_ignores_other_sources(self, engine, rng, registry):
        fw = RateLimitFirewall(threshold_rps=10.0, poll_interval_s=1.0)
        fw.attach(engine)
        attacker = make_attacker(engine, rng, registry, firewall=fw)
        foreign = attacker.pool.first_id + attacker.pool.size + 5
        for _ in range(100):
            fw.admit(foreign)
        engine.run(until=1.0)
        assert not attacker._firewall_detection()


class TestEndToEndEvasion:
    def test_dope_slides_under_firewall(self, engine, rng, registry, collector):
        """The defining DOPE property: the converged attack stays
        below the per-source detection threshold while presenting a
        substantial aggregate rate."""
        import numpy as np

        rack = Rack(engine, num_servers=4, rng=np.random.default_rng(1))
        fw = RateLimitFirewall(threshold_rps=150.0, poll_interval_s=5.0)
        fw.attach(engine)
        nlb = NetworkLoadBalancer(
            rack.servers, firewall=fw, now=lambda: engine.now
        )
        attacker = DopeAttacker(
            engine,
            nlb.dispatch,
            registry,
            rng,
            firewall=fw,
            initial_rate_rps=100.0,
            rate_step_rps=100.0,
            max_rate_rps=400.0,
            num_agents=50,
            adjust_interval_s=10.0,
        )
        attacker.start()
        engine.run(until=120.0)
        assert fw.stats.bans == 0
        assert attacker.per_agent_rate < fw.threshold_rps
        assert attacker.generator.generated > 1000

    def test_stop_halts_attack(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry)
        attacker.start()
        engine.run(until=10.0)
        attacker.stop()
        generated = attacker.generator.generated
        adjustments = len(attacker.stats.adjustments)
        engine.run(until=30.0)
        assert attacker.generator.generated == generated
        assert len(attacker.stats.adjustments) == adjustments


class TestValidation:
    def test_bad_backoff_rejected(self, engine, rng, registry):
        with pytest.raises(ValueError):
            make_attacker(engine, rng, registry, backoff_factor=1.5)

    def test_max_below_initial_rejected(self, engine, rng, registry):
        with pytest.raises(ValueError):
            make_attacker(
                engine, rng, registry, initial_rate_rps=100.0, max_rate_rps=50.0
            )

    def test_default_mix_is_high_power_types(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry)
        names = {t.name for t in attacker.generator.mix.types}
        assert names == {"colla-filt", "k-means", "word-count"}


class TestAgentRotation:
    def test_rotation_allocates_fresh_pool(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry, rotate_on_detection=True)
        old_pool = attacker.pool
        attacker.rotate_agents()
        assert attacker.pool is not old_pool
        assert attacker.pool.size == old_pool.size
        assert set(attacker.pool.ids).isdisjoint(set(old_pool.ids))
        assert attacker.generator.source_pool is attacker.pool

    def test_detection_triggers_rotation(self, engine, rng, registry):
        detected = {"flag": True}
        attacker = make_attacker(
            engine,
            rng,
            registry,
            detection_signal=lambda: detected["flag"],
            rotate_on_detection=True,
        )
        attacker.start()
        engine.run(until=11.0)  # two adjustments, both "detected"
        assert attacker.rotations == 2

    def test_no_rotation_without_flag(self, engine, rng, registry):
        attacker = make_attacker(
            engine, rng, registry, detection_signal=lambda: True
        )
        attacker.start()
        engine.run(until=11.0)
        assert attacker.rotations == 0

    def test_rotation_evades_standing_bans(self, engine, rng, registry, collector):
        """A rotating botnet keeps its traffic flowing while a
        non-rotating one starves behind its bans."""
        import numpy as np

        from repro.cluster import Rack
        from repro.network import NetworkLoadBalancer, RateLimitFirewall

        def run(rotate):
            eng = type(engine)()
            reg = type(registry)()
            rack = Rack(eng, num_servers=4, rng=np.random.default_rng(0))
            fw = RateLimitFirewall(
                threshold_rps=10.0, poll_interval_s=5.0, ban_duration_s=600.0
            )
            fw.attach(eng)
            nlb = NetworkLoadBalancer(rack.servers, firewall=fw, now=lambda: eng.now)
            attacker = DopeAttacker(
                eng,
                nlb.dispatch,
                reg,
                np.random.default_rng(1),
                firewall=fw,
                initial_rate_rps=200.0,
                rate_step_rps=50.0,
                max_rate_rps=400.0,
                num_agents=4,  # 50 rps per agent >> threshold: banned fast
                adjust_interval_s=10.0,
                backoff_factor=0.95,
                rotate_on_detection=rotate,
            )
            attacker.start()
            eng.run(until=120.0)
            return attacker.generator.accepted

        static = run(rotate=False)
        rotating = run(rotate=True)
        assert rotating > 2 * static


class TestPredictorPoisonMode:
    def test_mode_validated(self, engine, rng, registry):
        with pytest.raises(ValueError):
            make_attacker(engine, rng, registry, mode="typo-mode")

    def test_classic_is_the_default(self, engine, rng, registry):
        attacker = make_attacker(engine, rng, registry)
        assert attacker.mode == "classic"
        assert attacker._flood_at_s is None

    def test_shapes_then_floods(self, engine, rng, registry):
        attacker = make_attacker(
            engine,
            rng,
            registry,
            mode="predictor-poison",
            poison_duration_s=20.0,
            shaping_rate_rps=10.0,
            max_rate_rps=500.0,
        )
        attacker.start()
        # Shaping window: the quiet stream holds the shaping rate and
        # never ramps, whatever the classic probe loop would have done.
        engine.run(until=19.0)
        assert attacker.state is AttackerState.SHAPING
        assert attacker.rate_rps == pytest.approx(10.0)
        # Flood instant: one step to the full rate and the target mix,
        # then the classic Fig. 12 loop takes over.
        engine.run(until=26.0)
        assert attacker.state is AttackerState.PROBING
        assert attacker.rate_rps == pytest.approx(500.0)
        states = [a.state for a in attacker.stats.adjustments]
        assert AttackerState.SHAPING in states
        assert states[-1] is AttackerState.PROBING

    def test_shaping_mix_defaults_to_lightest_type(self, engine, rng, registry):
        attacker = make_attacker(
            engine, rng, registry, mode="predictor-poison"
        )
        (only_type,) = attacker.shaping_mix.types
        assert only_type.name == "text-cont"

    def test_poison_params_validated(self, engine, rng, registry):
        with pytest.raises(ValueError):
            make_attacker(
                engine, rng, registry,
                mode="predictor-poison", poison_duration_s=0.0,
            )
        with pytest.raises(ValueError):
            make_attacker(
                engine, rng, registry,
                mode="predictor-poison", shaping_rate_rps=-1.0,
            )
