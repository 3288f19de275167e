"""The online-detection pipeline: features, scorer, registry, scheme.

Unit coverage of ``repro.detect``'s three layers — the streaming
feature extractor (bounds, decay, calibration clamp), the anomaly
scorer (warm-up, hysteresis, determinism) and the scheme registry —
plus Hypothesis properties for the feature algebra the scorer depends
on: entropy bounded by the catalog size, rates non-negative, and the
decay windows monotone in elapsed time.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.detect import (
    OnlineAnomalyModel,
    OnlineDetectScheme,
    SCHEME_NAMES,
    StreamingFeatureExtractor,
    make_scheme,
    validate_scheme_names,
)
from repro.detect.features import GAIN_MAX, GAIN_MIN
from repro.sim import SimulationConfig
from repro.workloads import ALL_TYPES, COLLA_FILT, K_MEANS


# ----------------------------------------------------------------------
# StreamingFeatureExtractor
# ----------------------------------------------------------------------


class TestFeatureExtractor:
    def test_arrivals_raise_rate(self):
        ex = StreamingFeatureExtractor(ALL_TYPES, tau_s=10.0)
        for i in range(20):
            ex.observe_arrival(1, COLLA_FILT, now=i * 0.1)
        assert ex.features(1, now=2.0).rate_rps > 0.0

    def test_single_type_stream_has_zero_entropy(self):
        ex = StreamingFeatureExtractor(ALL_TYPES, tau_s=10.0)
        for i in range(50):
            ex.observe_arrival(1, K_MEANS, now=i * 0.05)
        assert ex.features(1, now=2.5).entropy_bits == 0.0

    def test_uniform_mix_approaches_max_entropy(self):
        ex = StreamingFeatureExtractor(ALL_TYPES, tau_s=1e6)
        for i, rtype in enumerate(ALL_TYPES * 40):
            ex.observe_arrival(1, rtype, now=i * 0.01)
        feats = ex.features(1, now=2.0)
        assert feats.entropy_bits == pytest.approx(math.log2(len(ALL_TYPES)), rel=1e-6)

    def test_energy_attribution_scales_power(self):
        ex = StreamingFeatureExtractor(
            ALL_TYPES, tau_s=10.0, energy_of=lambda rtype: 2.5
        )
        for i in range(10):
            ex.observe_completion(1, COLLA_FILT, now=i * 0.1)
        # 10 completions x 2.5 J over a 10 s window, no decay to speak of.
        assert ex.features(1, now=1.0).power_w == pytest.approx(2.5, rel=0.2)

    def test_calibration_clamp_flags_and_bounds(self):
        ex = StreamingFeatureExtractor(ALL_TYPES)
        ex.set_calibration(1.3)
        assert not ex.gain_clamped
        assert ex.calibration_gain == pytest.approx(1.3)
        ex.set_calibration(50.0)  # meter dropout: worst-case/modelled
        assert ex.gain_clamped
        assert ex.calibration_gain == GAIN_MAX
        ex.set_calibration(0.0)
        assert ex.gain_clamped
        assert ex.calibration_gain == GAIN_MIN

    def test_sources_sorted(self):
        ex = StreamingFeatureExtractor(ALL_TYPES)
        for sid in (9, 3, 5):
            ex.observe_arrival(sid, COLLA_FILT, now=0.0)
        assert list(ex.sources()) == [3, 5, 9]


# ----------------------------------------------------------------------
# Hypothesis: the feature algebra
# ----------------------------------------------------------------------

arrival_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # source id
        st.sampled_from(ALL_TYPES),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),  # gap
    ),
    min_size=1,
    max_size=60,
)


class TestFeatureProperties:
    @given(stream=arrival_streams)
    @settings(max_examples=50, deadline=None)
    def test_entropy_bounded_by_catalog(self, stream):
        """entropy ∈ [0, log2(|types|)] for every arrival sequence."""
        ex = StreamingFeatureExtractor(ALL_TYPES, tau_s=5.0)
        now = 0.0
        for sid, rtype, gap in stream:
            now += gap
            ex.observe_arrival(sid, rtype, now)
        for sid in ex.sources():
            feats = ex.features(sid, now)
            assert 0.0 <= feats.entropy_bits <= math.log2(len(ALL_TYPES)) + 1e-9

    @given(stream=arrival_streams)
    @settings(max_examples=50, deadline=None)
    def test_rates_and_power_non_negative(self, stream):
        ex = StreamingFeatureExtractor(
            ALL_TYPES, tau_s=5.0, energy_of=lambda rtype: 1.0
        )
        now = 0.0
        for sid, rtype, gap in stream:
            now += gap
            ex.observe_arrival(sid, rtype, now)
            ex.observe_completion(sid, rtype, now)
        for sid in ex.sources():
            feats = ex.features(sid, now)
            assert feats.rate_rps >= 0.0
            assert feats.power_w >= 0.0
            assert feats.burstiness >= 0.0

    @given(
        arrivals=st.integers(min_value=1, max_value=30),
        dt1=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        dt2=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_decay_window_monotone_in_elapsed_time(self, arrivals, dt1, dt2):
        """With no new arrivals, rate and power never increase with time."""

        def rate_after(idle_s):
            ex = StreamingFeatureExtractor(ALL_TYPES, tau_s=5.0)
            for i in range(arrivals):
                ex.observe_arrival(1, COLLA_FILT, now=i * 0.1)
                ex.observe_completion(1, COLLA_FILT, now=i * 0.1)
            feats = ex.features(1, now=arrivals * 0.1 + idle_s)
            return feats.rate_rps, feats.power_w

        early = rate_after(min(dt1, dt2))
        late = rate_after(max(dt1, dt2))
        assert late[0] <= early[0] + 1e-12
        assert late[1] <= early[1] + 1e-12


# ----------------------------------------------------------------------
# OnlineAnomalyModel
# ----------------------------------------------------------------------


def _feats(ex, sid, now):
    return ex.features(sid, now)


class TestAnomalyModel:
    def _population(self):
        """A tight benign population plus one screaming outlier."""
        ex = StreamingFeatureExtractor(ALL_TYPES, tau_s=10.0)
        now = 0.0
        for step in range(60):
            now = step * 1.0
            for sid in range(10):
                ex.observe_arrival(sid, ALL_TYPES[sid % len(ALL_TYPES)], now)
        for i in range(400):
            ex.observe_arrival(99, COLLA_FILT, now=now + i * 0.01)
        return ex, now + 4.0

    def test_warmup_blocks_verdicts(self):
        model = OnlineAnomalyModel(warmup_observations=1000)
        ex, now = self._population()
        assert not model.update(99, _feats(ex, 99, now))
        assert not model.warmed_up

    def test_outlier_flagged_after_warmup(self):
        model = OnlineAnomalyModel(warmup_observations=10)
        ex, now = self._population()
        for _ in range(3):
            for sid in range(10):
                model.update(sid, _feats(ex, sid, now))
        assert model.warmed_up
        assert model.update(99, _feats(ex, 99, now))
        assert model.last_scores[99] > model.enter_threshold

    def test_hysteresis_band(self):
        model = OnlineAnomalyModel(
            warmup_observations=1, enter_threshold=2.0, exit_threshold=1.0
        )
        # Force the moments directly through observe() on a synthetic
        # population so score() is analytically predictable.
        from repro.detect.features import SourceFeatures

        base = SourceFeatures(1.0, 1.0, 1.0, 1.0)
        for _ in range(50):
            model.observe(base)
        assert model.score(base) == pytest.approx(0.0, abs=1e-9)
        # A vector scoring between exit and enter must NOT flip an
        # innocent source, but must KEEP a suspect one.
        mid = SourceFeatures(1.075, 1.075, 1.075, 1.075)  # z = 1.5 per feature
        assert 1.0 < model.score(mid) < 2.0
        assert not model.update(1, mid)
        model._suspects[2] = True
        assert model.update(2, mid)

    def test_update_scores_before_absorbing(self):
        from repro.detect.features import SourceFeatures

        model = OnlineAnomalyModel(warmup_observations=1)
        base = SourceFeatures(1.0, 1.0, 1.0, 1.0)
        for _ in range(20):
            model.observe(base)
        outlier = SourceFeatures(100.0, 100.0, 100.0, 100.0)
        before = model.score(outlier)
        model.update(5, outlier)
        assert model.last_scores[5] == before

    def test_fixed_sequence_is_deterministic(self):
        def run():
            model = OnlineAnomalyModel(warmup_observations=5)
            ex, now = TestAnomalyModel._population(self)
            out = []
            for _ in range(4):
                for sid in list(ex.sources()):
                    out.append((sid, model.update(sid, _feats(ex, sid, now))))
            return out, model.last_scores

        assert run() == run()

    def test_validation(self):
        with pytest.raises(Exception):
            OnlineAnomalyModel(enter_threshold=1.0, exit_threshold=1.5)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_six_schemes(self):
        assert set(SCHEME_NAMES) == {
            "anti-dope",
            "capping",
            "online-detect",
            "prediction",
            "shaving",
            "token",
        }

    def test_unknown_name_error_lists_menu(self):
        with pytest.raises(ValueError) as exc:
            validate_scheme_names(["capping", "typo-scheme"])
        message = str(exc.value)
        assert "typo-scheme" in message
        for name in SCHEME_NAMES:
            assert name in message

    def test_make_scheme_threads_placement(self):
        config = SimulationConfig.for_topology(
            "tree-small", detect_placement="row"
        )
        scheme = make_scheme("online-detect", config)
        assert isinstance(scheme, OnlineDetectScheme)
        assert scheme.placement == "row"

    def test_make_scheme_builds_all(self):
        for name in SCHEME_NAMES:
            scheme = make_scheme(name)
            assert scheme.name == name


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------


class TestDetectPlacementConfig:
    def test_default_serialises_without_key(self):
        # The delete-at-default contract: pre-detector configs (and
        # their hashes / cached experiment ids) are unchanged.
        assert "detect_placement" not in SimulationConfig().to_dict()

    def test_non_default_round_trips(self):
        cfg = SimulationConfig(detect_placement="row")
        data = cfg.to_dict()
        assert data["detect_placement"] == "row"
        assert SimulationConfig.from_dict(data) == cfg

    def test_invalid_placement_rejected(self):
        with pytest.raises(Exception):
            SimulationConfig(detect_placement="rack")

    def test_json_round_trip(self):
        cfg = SimulationConfig(detect_placement="row")
        data = json.loads(json.dumps(cfg.to_dict()))
        assert SimulationConfig.from_dict(data) == cfg
