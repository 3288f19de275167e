"""Segregated wall-clock phase timers.

This module is the **one** place in ``src/repro`` that reads a wall
clock.  Everything it measures is, by construction, nondeterministic —
machine speed, scheduler noise, cache temperature — so timings live in
their own table, are never mixed into counters, and are excluded from
every deterministic artifact and hash (enforced by
``tests/test_obs.py``).  REP001's wall-clock ban is deliberately
suppressed on the single line that binds the clock.

The clock is injectable so unit tests can drive timers with a fake
clock and assert exact totals.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional

__all__ = ["WallTimers"]


class WallTimers:
    """Named wall-clock accumulators with phase scoping.

    Parameters
    ----------
    clock:
        Zero-argument monotonic-seconds source.  Defaults to
        ``time.perf_counter``; tests inject a fake.
    """

    __slots__ = ("_clock", "_totals_s", "_counts")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        if clock is None:
            clock = time.perf_counter  # repro: ignore[REP001]
        self._clock = clock
        self._totals_s: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Charge the wall time of the enclosed block to *name*."""
        start_s = self._clock()
        try:
            yield
        finally:
            self.add(name, self._clock() - start_s)

    def add(self, name: str, elapsed_s: float) -> None:
        """Record *elapsed_s* wall seconds against *name*.

        Clock non-monotonicity (NTP steps on exotic clocks) is clamped
        to zero rather than corrupting the total.
        """
        if elapsed_s < 0.0:
            elapsed_s = 0.0
        self._totals_s[name] = self._totals_s.get(name, 0.0) + elapsed_s
        self._counts[name] = self._counts.get(name, 0) + 1

    def total_s(self, name: str) -> float:
        """Accumulated wall seconds for *name* (0.0 when never timed)."""
        return self._totals_s.get(name, 0.0)

    def count(self, name: str) -> int:
        """Number of recorded intervals for *name*."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Name-sorted snapshot: ``{name: {"total_s": …, "count": …}}``."""
        return {
            name: {
                "total_s": self._totals_s[name],
                "count": self._counts[name],
            }
            for name in sorted(self._totals_s)
        }

    def clear(self) -> None:
        """Reset every timer (fresh measurement window)."""
        self._totals_s.clear()
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._totals_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WallTimers({len(self._totals_s)} names)"
