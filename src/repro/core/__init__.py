"""Anti-DOPE — the paper's contribution: suspect list, PDF, DPM, RPM.

RPM, the control slot that runs DPM's plan, is
:meth:`~repro.core.anti_dope.SuspectPoolScheme.step`.
"""

from .anti_dope import AntiDopeScheme
from .oracle import GroundTruthFilter, OracleScheme
from .dpm import DPMPlanner, ThrottlePlan
from .pdf import PDFPolicy, split_pools
from .suspect_list import SuspectList, UrlPowerProfile

__all__ = [
    "SuspectList",
    "UrlPowerProfile",
    "PDFPolicy",
    "split_pools",
    "DPMPlanner",
    "ThrottlePlan",
    "AntiDopeScheme",
    "OracleScheme",
    "GroundTruthFilter",
]
