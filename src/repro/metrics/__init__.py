"""Measurement substrate: completion records, latency, energy, availability."""

from .availability import AvailabilityReport, availability
from .collector import MetricsCollector
from .energy import EnergyAccountant, EnergyReport, normalized_energy
from .latency import LatencyStats, slowdown

__all__ = [
    "MetricsCollector",
    "LatencyStats",
    "slowdown",
    "AvailabilityReport",
    "availability",
    "EnergyAccountant",
    "EnergyReport",
    "normalized_energy",
]
