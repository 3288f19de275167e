"""UPS battery model.

The paper's evaluation uses "a mini battery which can sustain 2 minutes
when supporting all the web application nodes" (Section 6.4).  The
model is an energy store with power-rate limits and one-way conversion
efficiency; it is *passive* — power managers decide when and how hard
to (dis)charge each control slot, which is exactly how the Shaving and
Anti-DOPE schemes differ in Fig. 18.
"""

from __future__ import annotations

from .._validation import check_fraction, check_non_negative, check_positive

__all__ = ["Battery"]


class Battery:
    """Rack UPS energy store.

    Parameters
    ----------
    capacity_j:
        Usable energy when fully charged (joules).
    max_discharge_w:
        Peak power the battery can deliver.
    max_charge_w:
        Peak power it can absorb while recharging.
    efficiency:
        One-way conversion efficiency; energy drawn from the grid to
        store ``E`` joules is ``E / efficiency``.
    initial_soc:
        Initial state of charge as a fraction of capacity.
    """

    def __init__(
        self,
        capacity_j: float,
        max_discharge_w: float,
        max_charge_w: float,
        efficiency: float = 0.9,
        initial_soc: float = 1.0,
    ) -> None:
        check_positive("capacity_j", capacity_j)
        check_positive("max_discharge_w", max_discharge_w)
        check_positive("max_charge_w", max_charge_w)
        check_fraction("efficiency", efficiency, inclusive=False)
        check_fraction("initial_soc", initial_soc)
        self.capacity_j = float(capacity_j)
        self.max_discharge_w = float(max_discharge_w)
        self.max_charge_w = float(max_charge_w)
        self.efficiency = float(efficiency)
        self.soc_j = self.capacity_j * float(initial_soc)
        # Cumulative flows for the Fig. 19 energy split.
        self.delivered_j = 0.0
        self.absorbed_grid_j = 0.0
        self.discharge_cycles = 0
        self._was_discharging = False
        # Degradation state (chaos layer): a stuck BMS ignores commands.
        self.stuck = False

    @classmethod
    def for_rack(
        cls,
        rack_nameplate_w: float,
        sustain_s: float = 120.0,
        discharge_c_rate: float = 1.0,
        charge_c_rate: float = 0.25,
        efficiency: float = 0.9,
    ) -> "Battery":
        """Size a battery as the paper does: *sustain_s* at full rack load.

        ``discharge_c_rate`` / ``charge_c_rate`` scale the power limits
        relative to the rack nameplate (a UPS that can carry the whole
        rack discharges at 1.0 C here).
        """
        check_positive("rack_nameplate_w", rack_nameplate_w)
        check_positive("sustain_s", sustain_s)
        check_positive("discharge_c_rate", discharge_c_rate)
        check_positive("charge_c_rate", charge_c_rate)
        return cls(
            capacity_j=rack_nameplate_w * sustain_s,
            max_discharge_w=rack_nameplate_w * discharge_c_rate,
            max_charge_w=rack_nameplate_w * charge_c_rate,
            efficiency=efficiency,
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def soc_fraction(self) -> float:
        """State of charge in ``[0, 1]``."""
        return self.soc_j / self.capacity_j

    @property
    def empty(self) -> bool:
        """True when no usable energy remains."""
        return self.soc_j <= 1e-9

    @property
    def full(self) -> bool:
        """True when at capacity."""
        return self.soc_j >= self.capacity_j - 1e-9

    def available_power(self, dt: float) -> float:
        """Largest constant power sustainable for the next *dt* seconds."""
        check_positive("dt", dt)
        return min(self.max_discharge_w, self.soc_j / dt)

    # ------------------------------------------------------------------
    # Degradation (driven by the fault injector)
    # ------------------------------------------------------------------
    def set_stuck(self, stuck: bool) -> None:
        """Freeze (or release) the battery at its current state of charge.

        A stuck battery-management system accepts neither charge nor
        discharge commands — :meth:`discharge` and :meth:`charge` return
        0.0 — so schemes relying on shaving see the store silently
        refuse to help.
        """
        self.stuck = bool(stuck)

    def apply_capacity_fade(self, fraction: float) -> None:
        """Scale usable capacity by *fraction* (0 < fraction ≤ 1).

        Models ageing/thermal derating: the cell holds less than it was
        sized for.  Stored energy above the new ceiling is clamped away.
        """
        check_positive("fraction", fraction)
        check_fraction("fraction", fraction)
        self.capacity_j *= float(fraction)
        if self.soc_j > self.capacity_j:
            self.soc_j = self.capacity_j

    # ------------------------------------------------------------------
    # Flows
    # ------------------------------------------------------------------
    def discharge(self, power_w: float, dt: float) -> float:
        """Request *power_w* for *dt* seconds; return the power delivered.

        Delivery saturates at the rate limit and at the remaining
        energy; the return value is what the rack actually receives.
        """
        check_non_negative("power_w", power_w)
        check_positive("dt", dt)
        if self.stuck or power_w <= 0 or self.empty:
            self._was_discharging = False
            return 0.0
        delivered_w = min(power_w, self.max_discharge_w, self.soc_j / dt)
        self.soc_j -= delivered_w * dt
        if self.soc_j < 0.0:
            # Energy-limited delivery subtracts (soc/dt)*dt, which can
            # overshoot the stored energy by one rounding ulp.
            self.soc_j = 0.0
        self.delivered_j += delivered_w * dt
        if not self._was_discharging:
            self.discharge_cycles += 1
            self._was_discharging = True
        return delivered_w

    def charge(self, power_w: float, dt: float) -> float:
        """Offer *power_w* of grid headroom for *dt*; return power accepted.

        The grid-side draw is the accepted power; stored energy is
        reduced by the conversion efficiency.
        """
        check_non_negative("power_w", power_w)
        check_positive("dt", dt)
        self._was_discharging = False
        if self.stuck or power_w <= 0 or self.full:
            return 0.0
        room_w = (self.capacity_j - self.soc_j) / (dt * self.efficiency)
        accepted_w = min(power_w, self.max_charge_w, room_w)
        self.soc_j += accepted_w * dt * self.efficiency
        if self.soc_j > self.capacity_j:
            # Room-limited absorption can overshoot capacity by an ulp.
            self.soc_j = self.capacity_j
        self.absorbed_grid_j += accepted_w * dt
        return accepted_w

    def idle(self) -> None:
        """Mark a slot with neither charge nor discharge (cycle tracking)."""
        self._was_discharging = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Battery(soc={self.soc_fraction * 100:.0f}%, "
            f"cap={self.capacity_j / 3600:.2f}Wh)"
        )
