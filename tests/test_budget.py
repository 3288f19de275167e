"""Unit tests for power budgets and provisioning levels."""

import pytest

from repro.power import BudgetLevel, PowerBudget


class TestBudgetLevels:
    def test_paper_fractions(self):
        assert BudgetLevel.NORMAL.fraction == 1.00
        assert BudgetLevel.HIGH.fraction == 0.90
        assert BudgetLevel.MEDIUM.fraction == 0.85
        assert BudgetLevel.LOW.fraction == 0.80

    def test_for_level_scales_supply(self):
        budget = PowerBudget.for_level(BudgetLevel.LOW, 400.0)
        assert budget.supply_w == pytest.approx(320.0)
        assert budget.level is BudgetLevel.LOW


class TestBudgetArithmetic:
    def test_headroom(self):
        budget = PowerBudget(300.0)
        assert budget.headroom(250.0) == pytest.approx(50.0)
        assert budget.headroom(350.0) == pytest.approx(-50.0)

    def test_deficit_clamped_at_zero(self):
        budget = PowerBudget(300.0)
        assert budget.deficit(250.0) == 0.0
        assert budget.deficit(350.0) == pytest.approx(50.0)

    def test_violated_with_tolerance(self):
        budget = PowerBudget(300.0)
        assert budget.violated(301.0)
        assert not budget.violated(301.0, tolerance_w=2.0)
        assert not budget.violated(300.0)

    def test_invalid_supply_rejected(self):
        with pytest.raises(ValueError):
            PowerBudget(0.0)
