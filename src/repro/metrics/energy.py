"""Energy accounting (paper Section 6.5, Fig. 19).

Rack load energy is the exact integral each server accrues; the grid
(utility) side additionally reflects the battery: energy the UPS
delivered came out of storage (charged earlier, with conversion loss),
and recharging draws extra grid power.  Fig. 19 normalises each
scheme's total consumed energy "to the supplied utility power energy",
which :func:`normalized_energy` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .._validation import check_positive
from ..cluster.rack import Rack
from ..power.battery import Battery

__all__ = [
    "EnergyReport",
    "EnergyAccountant",
    "normalized_energy",
]


@dataclass(frozen=True)
class EnergyReport:
    """Energy split of one run."""

    duration_s: float
    load_energy_j: float
    battery_delivered_j: float
    battery_recharge_grid_j: float
    battery_efficiency: float = 0.9

    @property
    def utility_energy_j(self) -> float:
        """Grid-side energy: load minus UPS delivery plus recharge draw."""
        return self.load_energy_j - self.battery_delivered_j + (
            self.battery_recharge_grid_j
        )

    @property
    def battery_debt_j(self) -> float:
        """Grid energy still owed to restore the battery's initial SoC.

        Energy delivered from storage that has not been replenished
        within the window must eventually be bought back from the grid,
        paying the conversion loss — ``(delivered − stored)/η``.
        """
        stored = self.battery_recharge_grid_j * self.battery_efficiency
        outstanding = max(0.0, self.battery_delivered_j - stored)
        return outstanding / self.battery_efficiency

    @property
    def committed_utility_energy_j(self) -> float:
        """Utility energy including the deferred battery recharge.

        This is the fair basis for Fig. 19's comparison: a scheme that
        rode through the attack on stored energy has not *saved* that
        energy, merely deferred (and inflated) its purchase.
        """
        return self.utility_energy_j + self.battery_debt_j

    def __str__(self) -> str:
        return (
            f"load={self.load_energy_j / 3600:.1f}Wh "
            f"utility={self.utility_energy_j / 3600:.1f}Wh "
            f"battery_out={self.battery_delivered_j / 3600:.1f}Wh"
        )


class EnergyAccountant:
    """Snapshot-based energy bookkeeping for one rack (+ battery).

    Construct it, run the window, then call :meth:`report` — deltas are
    measured against the construction-time snapshot so warm-up energy
    is excluded.
    """

    def __init__(self, rack: Rack, battery: Optional[Battery] = None) -> None:
        self.rack = rack
        self.battery = battery
        self._t0 = rack.engine.now
        self._load0 = rack.total_energy_joules()
        self._delivered0 = battery.delivered_j if battery else 0.0
        self._absorbed0 = battery.absorbed_grid_j if battery else 0.0

    def report(self) -> EnergyReport:
        """Energy consumed since construction."""
        duration_s = self.rack.engine.now - self._t0
        check_positive("window duration", duration_s)
        delivered = (self.battery.delivered_j - self._delivered0) if self.battery else 0.0
        absorbed = (
            (self.battery.absorbed_grid_j - self._absorbed0) if self.battery else 0.0
        )
        return EnergyReport(
            duration_s=duration_s,
            load_energy_j=self.rack.total_energy_joules() - self._load0,
            battery_delivered_j=delivered,
            battery_recharge_grid_j=absorbed,
            battery_efficiency=(
                self.battery.efficiency if self.battery is not None else 0.9
            ),
        )


def normalized_energy(report: EnergyReport, supply_w: float) -> float:
    """Fig. 19's metric: consumed energy over the supplied-power energy.

    A value of 1.0 means the run drew exactly the budgeted energy for
    the window; capping pushes it below 1, battery-heavy schemes push
    the utility share around via recharge losses.
    """
    check_positive("supply_w", supply_w)
    return report.utility_energy_j / (supply_w * report.duration_s)
