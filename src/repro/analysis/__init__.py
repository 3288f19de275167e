"""Analysis helpers: CDFs, DOPE-region sweeps, tabular reporting."""

from .cdf import EmpiricalCDF
from .export import (
    collector_summary,
    meter_to_csv,
    records_to_csv,
    stats_to_json,
)
from .region import DopeRegionAnalyzer, RegionCell, RegionResult
from .report import format_table, print_table
from .sweep import MetricSummary, replicate

__all__ = [
    "EmpiricalCDF",
    "DopeRegionAnalyzer",
    "RegionCell",
    "RegionResult",
    "format_table",
    "print_table",
    "MetricSummary",
    "replicate",
    "records_to_csv",
    "meter_to_csv",
    "stats_to_json",
    "collector_summary",
]
