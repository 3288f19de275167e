"""The observability layer: counters, timers, manifests, the boundary.

The contract under test is the determinism boundary: counters are
deterministic output (same-seed runs agree exactly; the instrumented
hot path still exports byte-identical artifacts), while wall timings
are segregated and provably excluded from every deterministic hash.
"""

import json

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    DataCenterSimulation,
    SimulationConfig,
)
from repro.obs import (
    Counters,
    Recorder,
    RunManifest,
    WallTimers,
    config_hash,
    deterministic_hash,
)
from repro.workloads import COLLA_FILT, K_MEANS, uniform_mix


class FakeClock:
    """Scriptable monotonic clock for exact timer assertions."""

    def __init__(self):
        self.now_s = 0.0

    def __call__(self):
        return self.now_s

    def advance(self, dt_s):
        self.now_s += dt_s


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


def test_counters_inc_get_default():
    c = Counters()
    assert c.get("missing") == 0
    c.inc("a")
    c.inc("a", 2)
    c.inc("b", 0.5)
    assert c.get("a") == 3
    assert c.get("b") == 0.5
    assert len(c) == 2
    assert "a" in c and "missing" not in c


def test_counters_as_dict_is_name_sorted():
    c = Counters()
    c.inc("z")
    c.inc("a")
    c.inc("m")
    assert list(c.as_dict()) == ["a", "m", "z"]


def test_counters_clear_resets_the_table():
    c = Counters()
    c.inc("a")
    c.inc("b", 2)
    c.clear()
    assert len(c) == 0
    assert c.get("a") == 0


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------


def test_timers_phase_accumulates_exactly():
    clock = FakeClock()
    t = WallTimers(clock)
    with t.phase("p"):
        clock.advance(1.5)
    with t.phase("p"):
        clock.advance(0.25)
    assert t.total_s("p") == pytest.approx(1.75)
    assert t.count("p") == 2
    assert t.as_dict() == {"p": {"total_s": 1.75, "count": 2}}


def test_timers_phase_charges_time_even_when_block_raises():
    clock = FakeClock()
    t = WallTimers(clock)
    with pytest.raises(RuntimeError):
        with t.phase("p"):
            clock.advance(2.0)
            raise RuntimeError("boom")
    assert t.total_s("p") == pytest.approx(2.0)


def test_timers_negative_interval_clamped_to_zero():
    t = WallTimers(FakeClock())
    t.add("p", -3.0)
    assert t.total_s("p") == 0.0
    assert t.count("p") == 1


def test_timers_unknown_name_defaults_and_clear():
    t = WallTimers(FakeClock())
    assert t.total_s("never") == 0.0
    assert t.count("never") == 0
    t.add("p", 1.0)
    t.clear()
    assert len(t) == 0


def test_recorder_snapshot_keeps_tables_separate():
    clock = FakeClock()
    rec = Recorder(timer_clock=clock)
    rec.counters.inc("events", 7)
    with rec.timers.phase("run"):
        clock.advance(0.5)
    snap = rec.snapshot()
    assert snap["counters"] == {"events": 7}
    assert snap["timings_s"] == {"run": {"total_s": 0.5, "count": 1}}


# ----------------------------------------------------------------------
# Manifests and hashes
# ----------------------------------------------------------------------


def _manifest(**overrides):
    kwargs = dict(
        name="t",
        seed=3,
        config_hash=config_hash({"k": 1}),
        counters={"engine.events_dispatched": 10},
        timings_s={"engine.run": {"total_s": 0.123, "count": 1}},
    )
    kwargs.update(overrides)
    return RunManifest(**kwargs)


def test_manifest_round_trips_through_json():
    m = _manifest()
    back = RunManifest.from_json(m.to_json())
    assert back == m
    assert back.deterministic_hash() == m.deterministic_hash()


def test_manifest_rejects_tampered_hash():
    doc = json.loads(_manifest().to_json())
    doc["counters"]["engine.events_dispatched"] = 999
    with pytest.raises(ValueError, match="deterministic_hash mismatch"):
        RunManifest.from_dict(doc)


def test_manifest_hash_excludes_wall_timings():
    fast = _manifest(timings_s={"engine.run": {"total_s": 0.01, "count": 1}})
    slow = _manifest(timings_s={"engine.run": {"total_s": 9.99, "count": 4}})
    assert fast.deterministic_hash() == slow.deterministic_hash()
    assert fast.to_dict() != slow.to_dict()


def test_manifest_hash_covers_counters_and_identity():
    base = _manifest()
    assert _manifest(counters={"x": 1}).deterministic_hash() != base.deterministic_hash()
    assert _manifest(seed=4).deterministic_hash() != base.deterministic_hash()
    assert _manifest(name="u").deterministic_hash() != base.deterministic_hash()


def test_manifest_requires_non_negative_int_seed():
    with pytest.raises(ValueError):
        _manifest(seed=-1)
    with pytest.raises(TypeError):
        _manifest(seed=1.5)


def test_deterministic_hash_is_key_order_independent():
    assert deterministic_hash({"a": 1, "b": 2}) == deterministic_hash(
        {"b": 2, "a": 1}
    )
    assert deterministic_hash({"a": 1}) != deterministic_hash({"a": 2})


# ----------------------------------------------------------------------
# End to end: instrumented simulations stay deterministic
# ----------------------------------------------------------------------


def _instrumented_run(seed):
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed),
        scheme=AntiDopeScheme(),
    )
    sim.add_normal_traffic(rate_rps=40)
    sim.add_flood(
        mix=uniform_mix((COLLA_FILT, K_MEANS)),
        rate_rps=200,
        num_agents=10,
        start_s=10,
    )
    sim.run(45.0)
    return sim


def test_same_seed_runs_produce_identical_counters():
    a = _instrumented_run(seed=9)
    b = _instrumented_run(seed=9)
    counters = a.obs.counters.as_dict()
    assert counters == b.obs.counters.as_dict()
    # The instrumentation actually observed the hot path.
    assert counters["engine.events_dispatched"] > 0
    assert counters["network.nlb_forwarded"] > 0
    assert counters["network.pdf_suspect_forwarded"] > 0
    assert counters["power.control_slots"] == 45
    assert counters["cluster.power_model_evals"] > 0


def test_same_seed_run_manifests_share_deterministic_hash():
    a = _instrumented_run(seed=9).run_manifest("x")
    b = _instrumented_run(seed=9).run_manifest("x")
    assert a.deterministic_hash() == b.deterministic_hash()
    # Wall timings are real and (almost surely) differ — and must not
    # be able to perturb the hash either way.
    assert a.timings_s["engine.run"]["total_s"] > 0.0


def test_different_seed_counters_diverge():
    a = _instrumented_run(seed=9)
    b = _instrumented_run(seed=10)
    assert a.obs.counters.as_dict() != b.obs.counters.as_dict()
