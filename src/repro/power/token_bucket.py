"""Token: a power-based token bucket at the NLB (Table 2, row 3).

The paper's representative network-side defence: a token-bucket traffic
shaper whose tokens are denominated in *joules* instead of packets.
The bucket refills at the budget's dynamic-energy rate (supply minus
the rack idle floor); each admitted request pre-pays its estimated
per-request energy, and requests that cannot pay are discarded at the
balancer.

This guarantees the power limit on average, but because the shaper
cannot tell a 0.05 γ volume packet from a 1.0 γ Colla-Filt query's
*legitimate* twin, under a DOPE flood it "abandons more than 60 % of
the packages to satisfy the power limit" (Section 6.3) — good latency
for the survivors, terrible availability.
"""

from __future__ import annotations

from typing import Optional

from .._validation import check_positive
from ..network.request import Request
from .manager import NullScheme

__all__ = [
    "PowerTokenBucket",
    "TokenScheme",
]


class PowerTokenBucket:
    """Joule-denominated token bucket (an NLB admission filter).

    Parameters
    ----------
    refill_rate_w:
        Token inflow in watts (joules/second) — the dynamic power the
        budget can afford.
    burst_s:
        Bucket depth expressed in seconds of refill (controls how large
        a transient the shaper absorbs before dropping).
    energy_cost_fn:
        Maps a request to its token cost in joules.
    """

    def __init__(self, refill_rate_w: float, burst_s: float, energy_cost_fn) -> None:
        check_positive("refill_rate_w", refill_rate_w)
        check_positive("burst_s", burst_s)
        self.refill_rate_w = float(refill_rate_w)
        self.capacity_j = self.refill_rate_w * float(burst_s)
        self.energy_cost_fn = energy_cost_fn
        self.tokens_j = self.capacity_j
        self._last_refill = 0.0
        self.admitted = 0
        self.dropped = 0

    def admit(self, request: Request, now: float) -> bool:
        """Charge the request's energy cost; drop when the bucket is dry."""
        self._refill(now)
        cost = float(self.energy_cost_fn(request))
        if cost < 0:
            raise ValueError(f"negative energy cost {cost} for {request!r}")
        if self.tokens_j >= cost:
            self.tokens_j -= cost
            self.admitted += 1
            return True
        self.dropped += 1
        return False

    def _refill(self, now: float) -> None:
        dt = now - self._last_refill
        if dt > 0:
            self.tokens_j = min(
                self.capacity_j, self.tokens_j + dt * self.refill_rate_w
            )
            self._last_refill = now

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered requests discarded so far."""
        total = self.admitted + self.dropped
        return self.dropped / total if total else 0.0


class TokenScheme(NullScheme):
    """Power-based token-bucket traffic control: Null plus a bucket.

    Purely network-side: servers always run at nominal frequency (the
    inherited :meth:`NullScheme.step`) and the budget is enforced by
    refusing admission.  The per-request cost is the power model's
    closed-form energy estimate at nominal frequency — the same offline
    profile Anti-DOPE's suspect list uses.

    Parameters
    ----------
    burst_s:
        Bucket depth in seconds of refill.
    safety_factor:
        Fraction of the budget's dynamic headroom actually handed out
        as tokens.  A shaper sized to the *average* headroom still lets
        instantaneous peaks through, so real deployments run
        conservative; the paper's ">60 % of the packages" abandonment
        under flood reflects exactly this conservatism.
    """

    name = "token"

    def __init__(self, burst_s: float = 2.0, safety_factor: float = 0.6) -> None:
        super().__init__()
        check_positive("burst_s", burst_s)
        if not 0.0 < safety_factor <= 1.0:
            raise ValueError(f"safety_factor must be in (0, 1], got {safety_factor}")
        self.burst_s = float(burst_s)
        self.safety_factor = float(safety_factor)
        self.bucket: Optional[PowerTokenBucket] = None

    def bind(self, engine, rack, budget, battery, slot_s, topology=None) -> None:
        """Attach infrastructure and size the bucket from the budget."""
        super().bind(engine, rack, budget, battery, slot_s, topology)
        idle_floor = rack.idle_floor()
        refill = max(1e-6, (budget.supply_w - idle_floor) * self.safety_factor)
        model = rack.power_model

        def cost(request: Request) -> float:
            """Token price: the request's model energy at nominal f."""
            return model.energy_per_request(request.rtype, 1.0)

        self.bucket = PowerTokenBucket(refill, self.burst_s, cost)
        self.bucket._last_refill = engine.now

    def admission_filter(self) -> Optional[PowerTokenBucket]:
        """The power token bucket (installed on the NLB)."""
        self._require_bound()
        return self.bucket
