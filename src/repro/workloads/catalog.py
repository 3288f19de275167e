"""Request-type catalog (paper Table 1).

The paper's proof-of-concept e-Commerce service exposes four victim
endpoints plus volume-based DoS traffic and a normal-user mix:

* **Colla-Filt** — collaborative filtering; compute-intensive, the
  highest power *intensity* (its power CDF in Fig. 5a is sub-vertical,
  pressed against the nameplate).
* **K-means** — memory-intensive classification; the highest power *per
  request* (Fig. 5b) and the least frequency-sensitive, so DVFS must cut
  deeper to cap it (Fig. 6b).
* **Word-Count** — disk-heavy text scanning; moderate power, can still
  raise power at light traffic rates (Fig. 4a).
* **Text-Cont** — plain text retrieval; light.
* **volume DoS** — network-layer flood packets; near-zero per-request
  power (Fig. 5b) but very high achievable rates.

Each type is modelled by four orthogonal knobs:

``base_service_s``
    Service time of one request on one otherwise-idle worker running at
    the maximum CPU frequency.
``cpu_boundness``
    Fraction of the work that scales with core frequency.  The rest
    (memory/disk/network time) is frequency-invariant, so service time
    at frequency ``f`` is ``base / ((1-c) + c * f/f_max)``.
``power_intensity``
    Fraction of the server's per-worker dynamic power budget this type
    burns while executing (Colla-Filt ~1.0, volume DoS ~0.05).
``freq_sensitivity``
    Fraction of the type's dynamic power that scales with ``(f/f_max)^α``;
    the remainder (DRAM/disk power) is spent regardless of the CPU's
    V/F point.  Low values model K-means' "power is less sensitive to
    frequency changes".
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from .._validation import (
    check_fraction,
    check_positive,
    check_probability_vector,
    require,
)

__all__ = [
    "TrafficClass",
    "RequestType",
    "get_type",
    "get_type_by_url",
    "RequestMix",
    "alios_mix",
    "dope_mix",
    "uniform_mix",
]


class TrafficClass(enum.Enum):
    """Provenance of a request — who generated it.

    The simulator tags every request so metrics can be split into the
    legitimate population (whose latency the SLA protects) and the
    attack population, exactly as the paper's figures do.
    """

    NORMAL = "normal"
    ATTACK = "attack"
    PROBE = "probe"


@dataclass(frozen=True)
class RequestType:
    """Immutable profile of one service endpoint (one URL).

    Parameters mirror the module docstring.  ``service_cv`` is the
    coefficient of variation of the (lognormal) service-time noise.
    """

    name: str
    url: str
    base_service_s: float
    cpu_boundness: float
    power_intensity: float
    freq_sensitivity: float
    service_cv: float = 0.1
    description: str = ""

    # Derived lognormal noise parameters (set in __post_init__; declared
    # as ClassVar so the dataclass machinery does not treat them as
    # fields — they never appear in eq/repr/asdict).
    _ln_sigma: ClassVar[float]
    _ln_mu: ClassVar[float]

    def __post_init__(self) -> None:
        require(bool(self.name), "name must be non-empty")
        require(self.url.startswith("/"), f"url must start with '/': {self.url!r}")
        check_positive("base_service_s", self.base_service_s)
        check_fraction("cpu_boundness", self.cpu_boundness)
        check_fraction("power_intensity", self.power_intensity)
        check_fraction("freq_sensitivity", self.freq_sensitivity)
        check_fraction("service_cv", self.service_cv)
        # Lognormal service-noise parameters, precomputed once per type
        # (the dataclass is frozen, so the cached values can never go
        # stale).  ``object.__setattr__`` is the standard frozen-class
        # idiom for derived attributes.
        if self.service_cv > 0:
            sigma2 = math.log(1.0 + self.service_cv * self.service_cv)
            object.__setattr__(self, "_ln_sigma", math.sqrt(sigma2))
            object.__setattr__(self, "_ln_mu", -0.5 * sigma2)
        else:
            object.__setattr__(self, "_ln_sigma", 0.0)
            object.__setattr__(self, "_ln_mu", 0.0)

    def speedup(self, freq_ratio: float) -> float:
        """Execution-speed multiplier at ``f/f_max == freq_ratio``.

        A fully CPU-bound type (``cpu_boundness == 1``) slows down
        linearly with frequency; a fully memory-bound one is unaffected.
        """
        check_fraction("freq_ratio", freq_ratio)
        c = self.cpu_boundness
        return (1.0 - c) + c * freq_ratio

    def service_time(self, freq_ratio: float) -> float:
        """Deterministic service time (seconds) at the given frequency ratio."""
        return self.base_service_s / self.speedup(freq_ratio)

    def dynamic_power_factor(self, freq_ratio: float, alpha: float = 2.4) -> float:
        """Per-worker dynamic-power multiplier at the given frequency ratio.

        Combines the type's overall intensity with its frequency
        sensitivity: ``γ · (s · r^α + (1 - s))``, where ``r`` is the
        frequency ratio, ``s`` the sensitivity and ``γ`` the intensity.
        """
        check_fraction("freq_ratio", freq_ratio)
        check_positive("alpha", alpha)
        s = self.freq_sensitivity
        return self.power_intensity * (s * freq_ratio**alpha + (1.0 - s))


# ----------------------------------------------------------------------
# The Table 1 catalog
# ----------------------------------------------------------------------

COLLA_FILT = RequestType(
    name="colla-filt",
    url="/api/recommend",
    base_service_s=0.150,
    cpu_boundness=0.95,
    power_intensity=1.00,
    freq_sensitivity=0.90,
    service_cv=0.08,
    description=(
        "Collaborative filtering used by the recommender system; "
        "compute-intensive, highest power intensity."
    ),
)

K_MEANS = RequestType(
    name="k-means",
    url="/api/classify",
    base_service_s=0.200,
    cpu_boundness=0.40,
    power_intensity=0.95,
    freq_sensitivity=0.35,
    service_cv=0.10,
    description=(
        "K-means classification; memory-intensive, highest power per "
        "request and least sensitive to V/F scaling."
    ),
)

WORD_COUNT = RequestType(
    name="word-count",
    url="/api/wordcount",
    base_service_s=0.090,
    cpu_boundness=0.55,
    power_intensity=0.70,
    freq_sensitivity=0.55,
    service_cv=0.15,
    description="Word counting over text files read from disk.",
)

TEXT_CONT = RequestType(
    name="text-cont",
    url="/api/text",
    base_service_s=0.022,
    cpu_boundness=0.75,
    power_intensity=0.35,
    freq_sensitivity=0.75,
    service_cv=0.20,
    description="Plain text-content retrieval; the lightest EC endpoint.",
)

VOLUME_DOS = RequestType(
    name="volume-dos",
    url="/",
    base_service_s=0.0015,
    cpu_boundness=0.90,
    power_intensity=0.05,
    freq_sensitivity=0.90,
    service_cv=0.05,
    description=(
        "Volume-based (network-layer) flood packet; negligible "
        "per-request power."
    ),
)

VICTIM_TYPES: Tuple[RequestType, ...] = (COLLA_FILT, K_MEANS, WORD_COUNT, TEXT_CONT)
ALL_TYPES: Tuple[RequestType, ...] = VICTIM_TYPES + (VOLUME_DOS,)

_BY_NAME: Dict[str, RequestType] = {t.name: t for t in ALL_TYPES}
_BY_URL: Dict[str, RequestType] = {t.url: t for t in ALL_TYPES}


def get_type(name: str) -> RequestType:
    """Look up a catalog type by its ``name`` field."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown request type {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def get_type_by_url(url: str) -> RequestType:
    """Look up a catalog type by its URL (the NLB's classification key)."""
    try:
        return _BY_URL[url]
    except KeyError:
        raise KeyError(f"no request type registered for url {url!r}") from None


class RequestMix:
    """A discrete distribution over request types.

    Used both for the normal-user (AliOS) mix and for attacker type
    selection.  Sampling is vectorised: :meth:`sample_many` draws *n*
    types in one NumPy call, which is what the arrival-batch generators
    use on the hot path.
    """

    __slots__ = ("types", "weights", "_cum", "_cum_list", "_last_index")

    def __init__(self, weighted_types: Mapping[RequestType, float]):
        require(len(weighted_types) > 0, "RequestMix needs at least one type")
        items: List[Tuple[RequestType, float]] = list(weighted_types.items())
        weights = check_probability_vector("weights", [w for _, w in items])
        self.types: Tuple[RequestType, ...] = tuple(t for t, _ in items)
        self.weights: Tuple[float, ...] = tuple(weights)
        self._cum = np.cumsum(np.asarray(weights))
        # Plain-list mirror for the scalar hot path: bisect on a list
        # costs ~0.07 µs where np.searchsorted on the same data costs
        # ~1.6 µs (per-call NumPy dispatch overhead dominates at n≈5).
        self._cum_list: List[float] = self._cum.tolist()
        self._last_index = len(self.types) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{t.name}={w:.2f}" for t, w in zip(self.types, self.weights)
        )
        return f"RequestMix({parts})"

    def sample(self, rng: np.random.Generator) -> RequestType:
        """Draw a single request type.

        ``bisect_right`` on the cumulative weights is semantically
        identical to ``np.searchsorted(..., side="right")`` — the same
        uniform draw maps to the same index.
        """
        idx = bisect_right(self._cum_list, rng.random())
        if idx > self._last_index:
            idx = self._last_index
        return self.types[idx]

    def sample_many(self, rng: np.random.Generator, n: int) -> List[RequestType]:
        """Draw *n* request types in one vectorised call."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        draws = rng.random(n)
        idx = np.searchsorted(self._cum, draws, side="right")
        idx = np.minimum(idx, len(self.types) - 1)
        return [self.types[i] for i in idx]

    def expected_base_service(self) -> float:
        """Mean service time at f_max under this mix."""
        return float(
            sum(w * t.base_service_s for t, w in zip(self.types, self.weights))
        )


def alios_mix() -> RequestMix:
    """The AliOS normal-user mix imitating Alibaba online EC access.

    Dominated by light text traffic with occasional heavy analytics, so
    the legitimate load keeps power utilisation comfortably low
    (Fig. 15a's red line) until an attack arrives.
    """
    return RequestMix(
        {
            TEXT_CONT: 0.78,
            WORD_COUNT: 0.13,
            COLLA_FILT: 0.05,
            K_MEANS: 0.04,
        }
    )


def dope_mix() -> RequestMix:
    """The DOPE attack mix: equal weight over the three heavy types.

    Colla-Filt, K-Means and Word-Count are the endpoints whose requests
    draw the most power per request, so a low-rate flood of them
    violates the power budget without looking like a volume attack.
    """
    return uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))


def uniform_mix(types: Iterable[RequestType]) -> RequestMix:
    """Equal-weight mix over *types* (attacker sweeps use this)."""
    ts = list(types)
    require(len(ts) > 0, "uniform_mix needs at least one type")
    return RequestMix({t: 1.0 / len(ts) for t in ts})
