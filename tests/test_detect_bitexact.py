"""The detector's arithmetic, pinned bit for bit.

``StreamingFeatureExtractor`` and ``OnlineAnomalyModel`` promise the
same floats in the same order as the straightforward implementation
kept below as the reference: the window decay, the four features, the
population moments, the score and the hysteresis verdict.  A one-ulp
drift (for example ``exp(-dt * (1 / tau))`` in place of
``exp(-dt / tau)``) would pass every tolerance-based test and keep every
end-to-end digest, so these tests compare the bits of every feature and
score, and every verdict, over random arrival, completion and control
slot sequences: repeated instants (a zero gap), types outside the
profiled set and the warm-up boundary included.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import OnlineAnomalyModel, StreamingFeatureExtractor
from repro.detect.features import GAIN_MAX, GAIN_MIN
from repro.detect.model import DECAY
from repro.workloads.catalog import ALL_TYPES, RequestType

# ----------------------------------------------------------------------
# The reference: the straightforward loops, kept verbatim
# ----------------------------------------------------------------------

_MIN_STD_FRACTION = 0.05
_MIN_STD_ABS = 1e-6


class _RefWindow:
    def __init__(self, num_types: int, now: float) -> None:
        self.last_touch_s = now
        self.count = 0.0
        self.last_arrival_s: float = now
        self.gap_mean_s = 0.0
        self.gap_sq_mean_s2 = 0.0
        self.gap_samples = 0.0
        self.type_counts: List[float] = [0.0] * num_types
        self.energy_j = 0.0

    def decay_to(self, now: float, tau_s: float) -> None:
        dt = now - self.last_touch_s
        if dt <= 0.0:
            return
        factor = math.exp(-dt / tau_s)
        self.count *= factor
        self.energy_j *= factor
        self.gap_samples *= factor
        for slot in range(len(self.type_counts)):
            self.type_counts[slot] *= factor
        self.last_touch_s = now


class _RefExtractor:
    def __init__(self, types, tau_s, energy_of) -> None:
        self.tau_s = float(tau_s)
        self._slot_of = {rtype.name: slot for slot, rtype in enumerate(types)}
        self._num_types = len(self._slot_of)
        self._energy_of = energy_of
        self._gain = 1.0
        self._windows: Dict[int, _RefWindow] = {}
        self._gap_alpha = 0.25

    def observe_arrival(self, source_id, rtype, now) -> None:
        window = self._window(source_id, now)
        window.decay_to(now, self.tau_s)
        if window.count > 0.0:
            gap = now - window.last_arrival_s
            a = self._gap_alpha
            window.gap_mean_s += a * (gap - window.gap_mean_s)
            window.gap_sq_mean_s2 += a * (gap * gap - window.gap_sq_mean_s2)
            window.gap_samples += 1.0
        window.last_arrival_s = now
        window.count += 1.0
        slot = self._slot_of.get(rtype.name)
        if slot is not None:
            window.type_counts[slot] += 1.0

    def observe_completion(self, source_id, rtype, now) -> None:
        window = self._window(source_id, now)
        window.decay_to(now, self.tau_s)
        window.energy_j += float(self._energy_of(rtype))

    def set_calibration(self, gain) -> None:
        self._gain = min(max(float(gain), GAIN_MIN), GAIN_MAX)

    def sources(self):
        return sorted(self._windows)

    def features(self, source_id, now) -> tuple:
        window = self._window(source_id, now)
        window.decay_to(now, self.tau_s)
        rate = window.count / self.tau_s
        burstiness = 0.0
        mean_sq = window.gap_mean_s * window.gap_mean_s
        if window.gap_samples > 0.0 and mean_sq > 0.0:
            variance = max(0.0, window.gap_sq_mean_s2 - mean_sq)
            burstiness = variance / mean_sq
        total = sum(window.type_counts)
        entropy = 0.0
        if total > 0.0:
            for count in window.type_counts:
                if count > 0.0:
                    p = count / total
                    entropy -= p * math.log2(p)
        power_w = self._gain * window.energy_j / self.tau_s
        return (rate, burstiness, entropy, power_w)

    def _window(self, source_id, now) -> _RefWindow:
        window = self._windows.get(source_id)
        if window is None:
            window = _RefWindow(self._num_types, now)
            self._windows[source_id] = window
        return window


class _RefModel:
    def __init__(self, warmup_observations, enter_threshold, exit_threshold):
        self.warmup_observations = warmup_observations
        self.enter_threshold = float(enter_threshold)
        self.exit_threshold = float(exit_threshold)
        self.observations = 0
        self._mean = ()
        self._sq_mean = ()
        self._suspects: Dict[int, bool] = {}
        self.last_scores: Dict[int, float] = {}

    def observe(self, vec) -> None:
        if not self._mean:
            self._mean = tuple(vec)
            self._sq_mean = tuple(v * v for v in vec)
        else:
            d = DECAY
            self._mean = tuple(
                d * m + (1.0 - d) * v for m, v in zip(self._mean, vec)
            )
            self._sq_mean = tuple(
                d * s + (1.0 - d) * v * v for s, v in zip(self._sq_mean, vec)
            )
        self.observations += 1

    def score(self, vec) -> float:
        if not self._mean:
            return 0.0
        total = 0.0
        for value, mean, sq_mean in zip(vec, self._mean, self._sq_mean):
            variance = max(0.0, sq_mean - mean * mean)
            std = math.sqrt(variance)
            floor = max(_MIN_STD_ABS, _MIN_STD_FRACTION * abs(mean))
            std = max(std, floor)
            total += abs(value - mean) / std
        return total / len(vec)

    def update(self, source_id, vec) -> bool:
        value = self.score(vec)
        self.observe(vec)
        self.last_scores[source_id] = value
        if not self.observations >= self.warmup_observations:
            self._suspects[source_id] = False
            return False
        currently = self._suspects.get(source_id, False)
        if currently:
            verdict = value >= self.exit_threshold
        else:
            verdict = value >= self.enter_threshold
        self._suspects[source_id] = verdict
        return verdict


# ----------------------------------------------------------------------
# Driving both sides
# ----------------------------------------------------------------------

#: Profiled universe: all but the last catalog type, so arrivals of
#: ``ALL_TYPES[-1]`` and of ``_STRANGER`` are unprofiled.
_PROFILED = ALL_TYPES[:-1]
_STRANGER = RequestType(
    name="stranger",
    url="/stranger",
    base_service_s=0.01,
    cpu_boundness=0.5,
    power_intensity=0.3,
    freq_sensitivity=0.4,
)
_TYPES = tuple(ALL_TYPES) + (_STRANGER,)


def _energy_of(rtype: RequestType) -> float:
    return rtype.base_service_s * (40.0 + 37.0 * rtype.power_intensity)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


class _Pair:
    """The extractor and model beside the reference, compared per slot."""

    def __init__(self, tau_s: float, warmup: int, enter: float, exit_: float):
        self.new_ex = StreamingFeatureExtractor(
            _PROFILED, tau_s=tau_s, energy_of=_energy_of
        )
        self.ref_ex = _RefExtractor(_PROFILED, tau_s, _energy_of)
        self.new_model = OnlineAnomalyModel(
            warmup_observations=warmup,
            enter_threshold=enter,
            exit_threshold=exit_,
        )
        self.ref_model = _RefModel(warmup, enter, exit_)
        self.verdicts = 0
        self.suspect_verdicts = 0

    def arrival(self, source_id: int, rtype: RequestType, now: float) -> None:
        self.new_ex.observe_arrival(source_id, rtype, now)
        self.ref_ex.observe_arrival(source_id, rtype, now)

    def completion(self, source_id: int, rtype: RequestType, now: float) -> None:
        self.new_ex.observe_completion(source_id, rtype, now)
        self.ref_ex.observe_completion(source_id, rtype, now)

    def slot(self, now: float, gain: float) -> None:
        self.new_ex.set_calibration(gain)
        self.ref_ex.set_calibration(gain)
        sources = list(self.new_ex.sources())
        assert sources == self.ref_ex.sources()
        for source_id in sources:
            new = self.new_ex.features(source_id, now)
            ref = self.ref_ex.features(source_id, now)
            assert [_bits(v) for v in new] == [_bits(v) for v in ref], (
                source_id,
                now,
                tuple(new),
                ref,
            )
            new_score = self.new_model.score(new)
            assert _bits(new_score) == _bits(self.ref_model.score(ref))
            verdict = self.new_model.update(source_id, new)
            assert verdict == self.ref_model.update(source_id, ref)
            assert _bits(self.new_model.last_scores[source_id]) == _bits(
                self.ref_model.last_scores[source_id]
            )
            assert self.new_model.warmed_up == (
                self.ref_model.observations >= self.ref_model.warmup_observations
            )
            self.verdicts += 1
            self.suspect_verdicts += verdict
        assert [_bits(v) for v in self.new_model._mean] == [
            _bits(v) for v in self.ref_model._mean
        ]
        assert [_bits(v) for v in self.new_model._sq_mean] == [
            _bits(v) for v in self.ref_model._sq_mean
        ]


# A gap of exactly 0.0 repeats the instant (dt = 0 in the decay).
_gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=5.0, allow_nan=False),
)
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("arrival"),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(_TYPES),
            _gaps,
        ),
        st.tuples(
            st.just("completion"),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(_TYPES),
            _gaps,
        ),
        st.tuples(
            st.just("slot"),
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
            st.none(),
            _gaps,
        ),
    ),
    min_size=1,
    max_size=120,
)


@given(
    ops=_ops,
    tau_s=st.sampled_from((10.0, 3.0, 7.3, 0.9)),
    warmup=st.integers(min_value=1, max_value=25),
    band=st.sampled_from(((1.5, 1.0), (0.8, 0.3), (3.0, 0.5))),
)
@settings(max_examples=150, deadline=None)
def test_detector_matches_reference_bit_for_bit(ops, tau_s, warmup, band):
    pair = _Pair(tau_s, warmup, *band)
    now = 0.0
    for kind, first, rtype, gap in ops:
        now += gap
        if kind == "arrival":
            pair.arrival(first, rtype, now)
        elif kind == "completion":
            pair.completion(first, rtype, now)
        else:
            pair.slot(now, first)
    pair.slot(now, 1.0)  # a final read-out at a repeated instant


def test_long_seeded_run_matches_reference_bit_for_bit():
    """Tens of thousands of random gaps, crossing the warm-up boundary.

    A last-bit drift in the decay factor shows on roughly one gap in a
    thousand, so a long sequence is what makes such a drift certain to
    surface.
    """
    rng = np.random.default_rng(11)
    pair = _Pair(tau_s=10.0, warmup=100, enter=1.5, exit_=1.0)
    now = 0.0
    next_slot = 1.0
    n = 30_000
    sources = rng.integers(0, 40, size=n).tolist()
    kinds = rng.random(n).tolist()
    types = rng.integers(0, len(_TYPES), size=n).tolist()
    gaps = rng.exponential(0.004, size=n).tolist()
    for source_id, kind, type_index, gap in zip(sources, kinds, types, gaps):
        if kind < 0.05:
            gap = 0.0
        now += gap
        if now >= next_slot:
            pair.slot(next_slot, 0.8 + 0.05 * (int(next_slot) % 9))
            next_slot += 1.0
        rtype = _TYPES[type_index]
        if kind < 0.6:
            pair.arrival(source_id, rtype, now)
        else:
            pair.completion(source_id, rtype, now)
    pair.slot(now, 1.0)
    # The run crossed the warm-up boundary and produced both verdicts.
    assert pair.new_model.warmed_up
    assert 0 < pair.suspect_verdicts < pair.verdicts
