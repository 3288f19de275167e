"""Power infrastructure: budgets, batteries, meters and Table 2 schemes."""

from .battery import Battery
from .budget import BudgetLevel, PowerBudget
from .capping import CappingScheme, LocalCappingScheme
from .manager import NullScheme, PowerManagementScheme
from .meter import PowerMeter, PowerSample
from .prediction import (
    PowerHistoryPredictor,
    PredictedHeadroomFilter,
    PredictionScheme,
)
from .shaving import ShavingScheme
from .token_bucket import PowerTokenBucket, TokenScheme

__all__ = [
    "PowerBudget",
    "BudgetLevel",
    "Battery",
    "PowerMeter",
    "PowerSample",
    "PowerManagementScheme",
    "NullScheme",
    "CappingScheme",
    "LocalCappingScheme",
    "ShavingScheme",
    "TokenScheme",
    "PowerTokenBucket",
    "PowerHistoryPredictor",
    "PredictedHeadroomFilter",
    "PredictionScheme",
]
