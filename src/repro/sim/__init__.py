"""Discrete-event simulation substrate.

The primitives (clock, events, engine) are imported eagerly; the
orchestration layer (:class:`SimulationConfig`,
:class:`DataCenterSimulation`) depends on every other subpackage and is
exposed lazily via PEP 562 to keep low-level imports cycle-free.
"""

from .clock import SimulationClock
from .engine import EventEngine
from .events import (
    PRIORITY_CONTROL,
    PRIORITY_MONITOR,
    PRIORITY_WORKLOAD,
    EventQueue,
)

_LAZY = {
    "SimulationConfig": ("config", "SimulationConfig"),
    "DataCenterSimulation": ("simulation", "DataCenterSimulation"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value
    return value


__all__ = [
    "SimulationClock",
    "SimulationConfig",
    "EventEngine",
    "EventQueue",
    "PRIORITY_WORKLOAD",
    "PRIORITY_MONITOR",
    "PRIORITY_CONTROL",
    "DataCenterSimulation",
]
