"""Shaving: UPS-based peak shaving (Table 2, row 2).

The state-of-the-art alternative in the paper (after Govindan et al.,
ASPLOS'12 and Wang et al., ASPLOS'14): power peaks above the budget are
carried by discharging the rack UPS, and DVFS is engaged *only when the
battery runs out*.  Against the short, occasional peaks that motivated
the design this works beautifully; against a sustained DOPE peak the
battery drains within minutes (Fig. 18's steep blue line) and the
scheme degenerates into Capping with a delay.
"""

from __future__ import annotations

from .manager import PowerManagementScheme

__all__ = ["ShavingScheme"]


class ShavingScheme(PowerManagementScheme):
    """UPS-first peak shaving with a DVFS fallback.

    Parameters
    ----------
    recharge_headroom_fraction:
        Fraction of spare budget headroom offered to the battery for
        recharging each slot (recharging competes with serving load).
    soc_reserve:
        SoC fraction below which the battery is considered exhausted
        for shaving purposes (emergency ride-through reserve).
    hysteresis:
        Raise-guard band for the DVFS fallback controller.

    A budget violation flips the rack UPS into battery mode and the
    battery carries the *entire* rack load for the slot — the behaviour
    behind the paper's "mini battery which can sustain 2 minutes when
    supporting all the web application nodes" and the steep exhaustion
    in Fig. 18.
    """

    name = "shaving"

    def __init__(
        self,
        recharge_headroom_fraction: float = 0.5,
        soc_reserve: float = 0.05,
        hysteresis: float = 0.02,
    ) -> None:
        super().__init__(hysteresis)
        if not 0.0 <= recharge_headroom_fraction <= 1.0:
            raise ValueError(
                "recharge_headroom_fraction must be in [0, 1], "
                f"got {recharge_headroom_fraction}"
            )
        if not 0.0 <= soc_reserve < 1.0:
            raise ValueError(f"soc_reserve must be in [0, 1), got {soc_reserve}")
        self.recharge_headroom_fraction = recharge_headroom_fraction
        self.soc_reserve = soc_reserve

    def bind(self, engine, rack, budget, battery, slot_s, topology=None) -> None:
        """Attach infrastructure; Shaving additionally requires a battery."""
        super().bind(engine, rack, budget, battery, slot_s, topology)
        if self.battery is None:
            raise ValueError("ShavingScheme requires a battery")

    def step(self) -> None:
        """Shave with the UPS; fall back to DVFS when it is exhausted."""
        self._require_bound()
        battery = self.battery
        power_w = self.current_power()
        deficit = self.budget.deficit(power_w)
        if deficit > 0:
            usable_soc = max(0.0, battery.soc_fraction - self.soc_reserve)
            usable_j = usable_soc * battery.capacity_j
            available_w = min(battery.max_discharge_w, usable_j / self.slot_s)
            # The whole rack load moves onto the battery for the slot.
            if available_w >= power_w:
                battery.discharge(power_w, self.slot_s)
                # Peak fully shaved: make sure servers run at nominal.
                self.rack.set_all_levels(self.rack.ladder.max_level)
            else:
                # Battery exhausted: discharge what little remains and
                # cap the rest with DVFS, exactly "trigger DVFS only if
                # the UPS runs out of energy".
                topup_w = battery.discharge(min(available_w, deficit), self.slot_s)
                self.apply_uniform_cap(self.budget.supply_w + topup_w)
        else:
            # Recover performance first, then offer the battery only the
            # headroom that remains *after* the DVFS raise.  Charging
            # against the pre-raise (possibly deeply throttled) power
            # reading would commit a grid draw that, added to the raised
            # rack power, pushes the slot over budget.
            self.apply_uniform_cap(self.budget.supply_w)
            headroom = max(0.0, self.budget.headroom(self.current_power()))
            charge_w = min(
                headroom * self.recharge_headroom_fraction, headroom
            )
            battery.charge(charge_w, self.slot_s)
