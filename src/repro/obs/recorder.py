"""The counters + timers bundle threaded through a simulation.

One :class:`Recorder` travels with one :class:`~repro.sim.engine.
EventEngine` (each engine constructs its own), so every component that
can reach the engine — servers, schemes, the NLB, the meter — records
into the same two tables without any global state.  Sweeps pass a
recorder of their own to the experiment runner for the runner-level
counters and timers.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .counters import Counters
from .timers import WallTimers

__all__ = ["Recorder"]


class Recorder:
    """One observation context: deterministic counters + wall timers.

    Parameters
    ----------
    timer_clock:
        Optional wall-clock override forwarded to :class:`WallTimers`
        (tests inject a fake clock; production uses the default).
    """

    __slots__ = ("counters", "timers")

    def __init__(self, timer_clock: Optional[Callable[[], float]] = None) -> None:
        self.counters = Counters()
        self.timers = WallTimers(timer_clock)

    def snapshot(self) -> Dict[str, object]:
        """Both tables, keeping the determinism boundary explicit.

        ``"counters"`` is deterministic output; ``"timings_s"`` is wall
        clock and must never feed a reproducibility hash.
        """
        return {
            "counters": self.counters.as_dict(),
            "timings_s": self.timers.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Recorder(counters={len(self.counters)}, "
            f"timers={len(self.timers)})"
        )
