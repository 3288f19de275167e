"""REP004 fixture: linted as if it were a ``repro.cluster`` module.

The cluster substrate may use the DES kernel but must never import the
orchestration layer above it.
"""

from repro.sim.engine import EventEngine
from repro.sim.simulation import DataCenterSimulation  # VIOLATION
from repro.analysis.sweep import replicate  # VIOLATION

__all__ = ["EventEngine", "DataCenterSimulation", "replicate"]
