"""Anti-DOPE — the paper's contribution: suspect list, PDF, DPM, RPM."""

from .anti_dope import AntiDopeScheme
from .oracle import GroundTruthFilter, OracleScheme
from .dpm import DPMPlanner, ThrottlePlan
from .pdf import PDFPolicy, split_pools
from .rpm import RequestAwarePowerManager, RPMDecision, RPMStats
from .suspect_list import SuspectList, UrlPowerProfile

__all__ = [
    "SuspectList",
    "UrlPowerProfile",
    "PDFPolicy",
    "split_pools",
    "DPMPlanner",
    "ThrottlePlan",
    "RequestAwarePowerManager",
    "RPMDecision",
    "RPMStats",
    "AntiDopeScheme",
    "OracleScheme",
    "GroundTruthFilter",
]
