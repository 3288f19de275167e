"""Streaming per-source feature extraction (the detector's front end).

The online detector watches the same two event streams the production
NLB already has: request **arrivals** (seen by the forwarding policy
after the perimeter firewall) and server **completions** (the per-request
callback every server already fires for the metrics layer).  From those
two taps :class:`StreamingFeatureExtractor` maintains, per source
identity, four behavioural features over exponential-decay windows:

``rate_rps``
    Decayed arrival rate — the volume axis the perimeter defence also
    sees, kept so the scorer can separate "many light requests" from
    "few heavy ones".
``burstiness``
    Squared coefficient of variation of inter-arrival gaps (EWMA of the
    gap and of its square).  Closed-loop attack tools pace themselves
    almost periodically (CV² → 0) while human think times are highly
    dispersed — either extreme is informative.
``entropy_bits``
    Shannon entropy of the decayed request-type histogram.  A flood tool
    hammering one or two profiled heavy endpoints has near-zero type
    entropy; the AliOS population mixes the whole catalog.
``power_w``
    PowerTracer-style attributed power: decayed sum of per-request
    energy estimates from the completion stream, divided by the window
    time constant, scaled by a calibration gain the scheme derives from
    the (possibly degraded) rack power sensor.  This is the feature the
    DOPE threat model cannot dodge for free — lowering it means lowering
    the attack's power draw.

Every window is a plain exponential decay with one shared time constant
``tau_s``: state multiplied by ``exp(-dt/tau)`` on touch, so memory per
source is O(number of catalog types), independent of traffic volume.
All arithmetic is pure float math driven by simulation time — no RNG,
no wall clock — so same-seed runs extract byte-identical features in
every engine execution mode.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence

from .._validation import check_positive
from ..workloads.catalog import RequestType

__all__ = ["SourceFeatures", "StreamingFeatureExtractor"]

#: Calibration gain clamp.  The gain rescales attributed power by the
#: ratio of sensed to modelled rack power; under ``meter_noise`` it
#: wobbles near 1.0, under a long ``meter_dropout`` the sensing ladder
#: answers worst-case nameplate and the raw ratio explodes.  Clamping
#: keeps degradation *graceful*: a blind detector scores every source
#: with the same bounded gain instead of amplifying garbage.
GAIN_MIN = 0.5
GAIN_MAX = 2.0


class SourceFeatures(NamedTuple):
    """One source's feature vector at one instant, in the scorer's order."""

    rate_rps: float
    burstiness: float
    entropy_bits: float
    power_w: float


class _SourceWindow:
    """Exponential-decay state of one source (O(1) memory)."""

    __slots__ = (
        "last_touch_s",
        "count",
        "last_arrival_s",
        "gap_mean_s",
        "gap_sq_mean_s2",
        "gap_samples",
        "type_counts",
        "energy_j",
    )

    def __init__(self, num_types: int, now: float) -> None:
        self.last_touch_s = now
        self.count = 0.0
        self.last_arrival_s: float = now
        self.gap_mean_s = 0.0
        self.gap_sq_mean_s2 = 0.0
        self.gap_samples = 0.0
        self.type_counts: List[float] = [0.0] * num_types
        self.energy_j = 0.0


class StreamingFeatureExtractor:
    """Per-source behavioural features over exponential-decay windows.

    Parameters
    ----------
    types:
        The catalog universe the entropy feature normalises over; the
        type→slot mapping is fixed at construction so feature vectors
        are stable across the run.
    tau_s:
        Decay time constant shared by every window.  An event from
        ``tau_s`` seconds ago carries weight ``1/e``; the effective
        window the features describe is the last few ``tau_s``.
    energy_of:
        Per-request energy estimate (joules at full frequency) used for
        power attribution — the scheme wires the rack power model's
        ``energy_per_request`` here, the same hook the static suspect
        list profiles offline.  It must be a pure function of the type:
        it is called once per type name and the result reused (names
        are unique per simulation — the rack's type-slot registry
        rejects a second type under a known name).
    """

    def __init__(
        self,
        types: Sequence[RequestType],
        tau_s: float = 10.0,
        energy_of: Callable[[RequestType], float] = lambda rtype: 1.0,
    ) -> None:
        check_positive("tau_s", tau_s)
        if not types:
            raise ValueError("need at least one request type")
        self.tau_s = float(tau_s)
        self._slot_of: Dict[str, int] = {
            rtype.name: slot for slot, rtype in enumerate(types)
        }
        self._num_types = len(self._slot_of)
        self._energy_of = energy_of
        self._energy_by_name: Dict[str, float] = {}
        self._gain = 1.0
        self.gain_clamped = False
        self._windows: Dict[int, _SourceWindow] = {}
        #: EWMA weight of one new inter-arrival gap sample.
        self._gap_alpha = 0.25

    # ------------------------------------------------------------------
    # Event taps
    # ------------------------------------------------------------------
    def observe_arrival(
        self, source_id: int, rtype: RequestType, now: float
    ) -> None:
        """Fold one admitted arrival into the source's windows."""
        window = self._window(source_id, now)
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

    def observe_completion(
        self, source_id: int, rtype: RequestType, now: float
    ) -> None:
        """Attribute one served request's energy back to its source."""
        window = self._window(source_id, now)
        energy_j = self._energy_by_name.get(rtype.name)
        if energy_j is None:
            energy_j = float(self._energy_of(rtype))
            self._energy_by_name[rtype.name] = energy_j
        window.energy_j += energy_j

    def set_calibration(self, gain: float) -> None:
        """Rescale attributed power by the sensed/modelled ratio.

        The raw *gain* is clamped to ``[GAIN_MIN, GAIN_MAX]`` — the
        degradation contract under meter faults (see module docstring).
        :attr:`gain_clamped` reports whether the last call was clamped.
        """
        clamped = min(max(float(gain), GAIN_MIN), GAIN_MAX)
        self.gain_clamped = clamped != float(gain)
        self._gain = clamped

    @property
    def calibration_gain(self) -> float:
        """The clamped gain currently applied to the power feature."""
        return self._gain

    # ------------------------------------------------------------------
    # Feature readout
    # ------------------------------------------------------------------
    def sources(self) -> Iterable[int]:
        """Every source id with live window state, in sorted order."""
        return sorted(self._windows)

    def features(self, source_id: int, now: float) -> SourceFeatures:
        """The source's feature vector at *now* (windows decayed first)."""
        window = self._window(source_id, now)
        tau_s = self.tau_s
        rate = window.count / tau_s
        burstiness = 0.0
        # Guard on the *squared* mean: a subnormal gap mean (~1e-200)
        # is positive while its square underflows to exactly 0.0.
        mean_sq = window.gap_mean_s * window.gap_mean_s
        if window.gap_samples > 0.0 and mean_sq > 0.0:
            variance = window.gap_sq_mean_s2 - mean_sq
            # == max(0.0, variance), NaN included.
            burstiness = (variance if variance > 0.0 else 0.0) / mean_sq
        counts = window.type_counts
        total = sum(counts)
        entropy = 0.0
        if total > 0.0:
            log2 = math.log2
            for count in counts:
                if count > 0.0:
                    p = count / total
                    entropy -= p * log2(p)
        power_w = self._gain * window.energy_j / tau_s
        return SourceFeatures(rate, burstiness, entropy, power_w)

    def _window(self, source_id: int, now: float) -> _SourceWindow:
        """The source's window, created if new, decayed to *now*.

        The only place a window decays: every read and every tap goes
        through here.
        """
        window = self._windows.get(source_id)
        if window is None:
            window = _SourceWindow(self._num_types, now)
            self._windows[source_id] = window
        dt = now - window.last_touch_s
        if dt <= 0.0:
            return window
        factor = math.exp(-dt / self.tau_s)
        window.count *= factor
        window.energy_j *= factor
        window.gap_samples *= factor
        window.type_counts = [count * factor for count in window.type_counts]
        window.last_touch_s = now
        return window

    def __len__(self) -> int:
        return len(self._windows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingFeatureExtractor(sources={len(self._windows)}, "
            f"tau={self.tau_s}s, gain={self._gain:.2f})"
        )
