"""Service-availability accounting (paper Fig. 9).

The paper measures "severe decline in service availability" when
power-insufficient clusters face floods.  Availability here is the
fraction of *offered* legitimate requests that were served within an
SLA deadline — requests rejected anywhere in the pipeline (firewall,
token bucket, queue overflow) and requests served too late both count
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .._validation import check_positive
from ..network.request import FAULT_OUTCOMES, CompletionRecord, RequestOutcome

__all__ = [
    "AvailabilityReport",
    "availability",
]


@dataclass(frozen=True)
class AvailabilityReport:
    """Availability decomposition over one record population."""

    offered: int
    served_within_sla: int
    served_late: int
    dropped: int
    sla_s: float
    #: Drops caused by injected infrastructure faults (server crash,
    #: no healthy backend) — a subset of ``dropped``, kept separate so
    #: chaos runs can tell policy rejections from fault losses.
    dropped_fault: int = 0

    @property
    def availability(self) -> float:
        """Fraction of offered requests served within the SLA."""
        return self.served_within_sla / self.offered if self.offered else 1.0

    @property
    def drop_fraction(self) -> float:
        """Fraction of offered requests rejected before service."""
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def dropped_policy(self) -> int:
        """Drops attributable to policy (firewall/token/queue), not faults."""
        return self.dropped - self.dropped_fault

    def __str__(self) -> str:
        fault = f" [{self.dropped_fault} fault]" if self.dropped_fault else ""
        return (
            f"availability={self.availability * 100:.1f}% "
            f"(offered={self.offered}, in-SLA={self.served_within_sla}, "
            f"late={self.served_late}, dropped={self.dropped}{fault}, "
            f"SLA={self.sla_s * 1e3:.0f}ms)"
        )


def availability(
    records: Iterable[CompletionRecord],
    sla_s: float = 1.0,
) -> AvailabilityReport:
    """Compute availability of *records* against an SLA deadline.

    Parameters
    ----------
    records:
        The (pre-filtered) population — typically the legitimate class
        over the observation window.
    sla_s:
        Response-time deadline in seconds.
    """
    check_positive("sla_s", sla_s)
    offered = in_sla = late = dropped = dropped_fault = 0
    for record in records:
        weight = record.weight
        offered += weight
        if record.outcome is RequestOutcome.COMPLETED:
            if record.response_time <= sla_s:
                in_sla += weight
            else:
                late += weight
        else:
            dropped += weight
            if record.outcome in FAULT_OUTCOMES:
                dropped_fault += weight
    return AvailabilityReport(
        offered=offered,
        served_within_sla=in_sla,
        served_late=late,
        dropped=dropped,
        sla_s=sla_s,
        dropped_fault=dropped_fault,
    )
