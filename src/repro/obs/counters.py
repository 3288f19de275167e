"""Deterministic named counters.

A :class:`Counters` table maps dotted counter names (``"engine.events_
dispatched"``, ``"cluster.dvfs_transitions"``) to numeric totals.  The
table is part of a run's *deterministic* output: every increment is
driven by simulation state, never by wall-clock or scheduling
accidents, so two same-seed runs — serial or parallel — produce
byte-identical tables.  Anything wall-clock-shaped belongs in
:class:`~repro.obs.timers.WallTimers` instead.

Counter values are ``int`` or ``float`` (floats appear where the
counted quantity is simulated time, e.g. ``engine.sim_time_advanced_s``).

Counters bumped once per request take a *cell* instead of ``inc``:
:meth:`Counters.cell` hands out a one-slot list the hot site adds to
in place (``cell[0] += 1``), which skips the method call and the two
dict operations ``inc`` costs.  Every read folds the cells in, so a
cell is indistinguishable from ``inc`` on the same name.
"""

from __future__ import annotations

from typing import Dict, List, Union

__all__ = ["Counters"]

Number = Union[int, float]


class Counters:
    """A table of named monotonic counters.

    Increment-only by convention: nothing in the simulator decrements,
    so a counter table is a faithful event tally for the whole run.
    """

    __slots__ = ("_values", "_cells")

    def __init__(self) -> None:
        self._values: Dict[str, Number] = {}
        self._cells: Dict[str, List[Number]] = {}

    def inc(self, name: str, amount: Number = 1) -> None:
        """Add *amount* (default 1) to counter *name*, creating it at 0."""
        self._values[name] = self._values.get(name, 0) + amount

    def cell(self, name: str) -> List[Number]:
        """The one-slot tally of *name*, for a hot site to bump in place.

        ``cell[0] += n`` adds *n* to the counter exactly as
        ``inc(name, n)`` would, except that a cell still at 0 leaves the
        name absent (as a name never incremented is).  Every caller
        asking for one name shares one cell; only add positive amounts.
        """
        tally = self._cells.get(name)
        if tally is None:
            tally = self._cells[name] = [0]
        return tally

    def get(self, name: str) -> Number:
        """Current value of *name* (0 when never incremented)."""
        tally = self._cells.get(name)
        return self._values.get(name, 0) + (tally[0] if tally else 0)

    def _folded(self) -> Dict[str, Number]:
        """Every counter with its cell added; zero cells stay absent."""
        folded = dict(self._values)
        for name, tally in self._cells.items():
            if tally[0]:
                folded[name] = folded.get(name, 0) + tally[0]
        return folded

    def as_dict(self) -> Dict[str, Number]:
        """Name-sorted snapshot — the canonical serialised form."""
        folded = self._folded()
        return {name: folded[name] for name in sorted(folded)}

    def clear(self) -> None:
        """Reset every counter (fresh measurement window).

        Cells stay handed out: they are zeroed, not dropped, so the hot
        sites holding them keep counting into this table.
        """
        self._values.clear()
        for tally in self._cells.values():
            tally[0] = 0

    def __len__(self) -> int:
        return len(self._folded())

    def __contains__(self, name: str) -> bool:
        return name in self._folded()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({len(self)} names)"
