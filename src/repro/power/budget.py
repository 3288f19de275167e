"""Power budgets and the paper's provisioning scenarios.

The paper evaluates four supply levels, all relative to the rack's
"100 % supplied power" baseline:

========== =================== =========================
Scenario   Fraction of normal  Meaning
========== =================== =========================
Normal-PB  1.00                fully provisioned
High-PB    0.90                mild oversubscription
Medium-PB  0.85                moderate oversubscription
Low-PB     0.80                aggressive oversubscription
========== =================== =========================

:class:`PowerBudget` is the runtime object every power manager enforces
against; :class:`BudgetLevel` names the four scenarios so sweeps and
benches can iterate them declaratively.
"""

from __future__ import annotations

import enum
from typing import Dict

from .._validation import check_positive

__all__ = [
    "BudgetLevel",
    "PowerBudget",
]


class BudgetLevel(enum.Enum):
    """The paper's four provisioning scenarios (Section 3.3)."""

    NORMAL = "normal-pb"
    HIGH = "high-pb"
    MEDIUM = "medium-pb"
    LOW = "low-pb"

    @property
    def fraction(self) -> float:
        """Budget as a fraction of the fully provisioned supply."""
        return _FRACTIONS[self]


_FRACTIONS: Dict[BudgetLevel, float] = {
    BudgetLevel.NORMAL: 1.00,
    BudgetLevel.HIGH: 0.90,
    BudgetLevel.MEDIUM: 0.85,
    BudgetLevel.LOW: 0.80,
}


class PowerBudget:
    """A hard cap on simultaneous rack power draw.

    Parameters
    ----------
    supply_w:
        Provisioned power in watts.
    level:
        Optional scenario tag for reporting.
    """

    __slots__ = ("supply_w", "level")

    def __init__(self, supply_w: float, level: BudgetLevel = BudgetLevel.NORMAL):
        check_positive("supply_w", supply_w)
        self.supply_w = float(supply_w)
        self.level = level

    @classmethod
    def for_level(cls, level: BudgetLevel, normal_supply_w: float) -> "PowerBudget":
        """Build the budget for *level* given the Normal-PB supply."""
        check_positive("normal_supply_w", normal_supply_w)
        return cls(normal_supply_w * level.fraction, level)

    def headroom(self, power_w: float) -> float:
        """Watts of unused supply (negative ⇒ violation)."""
        return self.supply_w - power_w

    def deficit(self, power_w: float) -> float:
        """Watts above the cap (zero when within budget)."""
        return max(0.0, power_w - self.supply_w)

    def violated(self, power_w: float, tolerance_w: float = 0.0) -> bool:
        """True when *power_w* exceeds the cap by more than *tolerance_w*."""
        return power_w > self.supply_w + tolerance_w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PowerBudget({self.supply_w:.0f}W, {self.level.value})"
