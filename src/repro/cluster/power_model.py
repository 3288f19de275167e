"""Server power model.

Instantaneous server power is the sum of a frequency-dependent idle
floor and a per-worker dynamic term that depends on *what* each busy
worker is executing:

``P = P_idle(r) + (P_dyn_max / W) · Σ_busy γ_t · (s_t · r^α + (1 − s_t))``

where ``r = f/f_max``, ``W`` the worker count, and ``(γ_t, s_t)`` the
request type's power intensity and frequency sensitivity (see
:mod:`repro.workloads.catalog`).  With the default parameters a fully
loaded server running Colla-Filt at nominal frequency draws its 100 W
nameplate, matching the paper's leaf node.

This separation is the mechanism behind the paper's key observations:

* application-layer floods (big γ) drive power to nameplate while
  volume floods (tiny γ) barely move it — Figs 3 & 5;
* memory-bound K-means (small ``s``) keeps burning power when DVFS
  lowers ``r``, so capping it needs deeper V/F cuts — Fig 6b.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .._validation import check_fraction, check_int, check_positive
from ..workloads.catalog import RequestType
from .dvfs import FrequencyLadder

__all__ = ["ServerPowerModel", "TypeSlotRegistry", "PowerEvalTable"]


class ServerPowerModel:
    """Analytic power model of one leaf server.

    Parameters
    ----------
    nameplate_w:
        Faceplate power: the draw with every worker busy on the most
        power-intense type at nominal frequency.
    idle_fraction:
        Fraction of nameplate drawn by an idle server at nominal
        frequency.
    idle_freq_slope:
        Fraction of the idle floor that scales linearly with the
        frequency ratio (static leakage vs. clock-tree power).
    alpha:
        Exponent of the dynamic-power/frequency relationship (V roughly
        tracks f, so dynamic power ~ f·V² gives α between 2 and 3).
    num_workers:
        Worker slots the dynamic budget is split across.
    """

    __slots__ = (
        "nameplate_w",
        "idle_fraction",
        "idle_freq_slope",
        "alpha",
        "num_workers",
        "_idle_at_max",
        "_dyn_max",
        "_per_worker",
    )

    def __init__(
        self,
        nameplate_w: float = 100.0,
        idle_fraction: float = 0.38,
        idle_freq_slope: float = 0.25,
        alpha: float = 2.4,
        num_workers: int = 8,
    ) -> None:
        check_positive("nameplate_w", nameplate_w)
        check_fraction("idle_fraction", idle_fraction, inclusive=False)
        check_fraction("idle_freq_slope", idle_freq_slope)
        check_positive("alpha", alpha)
        check_int("num_workers", num_workers, minimum=1)
        self.nameplate_w = float(nameplate_w)
        self.idle_fraction = float(idle_fraction)
        self.idle_freq_slope = float(idle_freq_slope)
        self.alpha = float(alpha)
        self.num_workers = num_workers
        self._idle_at_max = self.nameplate_w * self.idle_fraction
        self._dyn_max = self.nameplate_w - self._idle_at_max
        self._per_worker = self._dyn_max / num_workers

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def idle_power(self, freq_ratio: float) -> float:
        """Idle floor (watts) at the given frequency ratio."""
        check_fraction("freq_ratio", freq_ratio)
        s = self.idle_freq_slope
        return self._idle_at_max * ((1.0 - s) + s * freq_ratio)

    def worker_power(self, rtype: RequestType, freq_ratio: float) -> float:
        """Dynamic power (watts) of one worker executing *rtype*."""
        return self._per_worker * rtype.dynamic_power_factor(
            freq_ratio, alpha=self.alpha
        )

    def power(
        self, active_types: Iterable[RequestType], freq_ratio: float
    ) -> float:
        """Total server power for the given set of busy workers."""
        dyn = sum(
            rtype.dynamic_power_factor(freq_ratio, alpha=self.alpha)
            for rtype in active_types
        )
        return self.idle_power(freq_ratio) + self._per_worker * dyn

    def power_from_counts(
        self,
        counts: Sequence[int],
        factor_row: Sequence[float],
        idle_w: float,
    ) -> float:
        """Total server power from per-type-slot busy-worker counts.

        The count-based hot path: *counts* holds how many workers run
        each registered type and *factor_row* the cached
        ``dynamic_power_factor`` per slot at the server's level (see
        :class:`PowerEvalTable`).
        """
        dyn = 0.0
        for i in range(len(counts)):
            dyn += counts[i] * factor_row[i]
        return idle_w + self._per_worker * dyn

    # ------------------------------------------------------------------
    # Closed-form helpers used by planners and offline profiling
    # ------------------------------------------------------------------
    def full_load_power(self, rtype: RequestType, freq_ratio: float) -> float:
        """Power with all workers busy on *rtype* — DVFS planners' bound."""
        return self.idle_power(freq_ratio) + self._dyn_max * (
            rtype.dynamic_power_factor(freq_ratio, alpha=self.alpha)
        )

    def energy_per_request(self, rtype: RequestType, freq_ratio: float) -> float:
        """Marginal energy (joules) one request of *rtype* adds.

        This is the dynamic worker power times the stretched service
        time — the quantity the paper's Fig. 5b ranks request types by,
        and the cost the Token scheme charges per admission.
        """
        return self.worker_power(rtype, freq_ratio) * rtype.service_time(freq_ratio)

    def max_power(self) -> float:
        """Upper bound of the model (== nameplate for γ=s=1 types)."""
        return self.nameplate_w

    def min_active_power(self, freq_ratio: float) -> float:
        """Idle floor — the deepest power any throttle can reach."""
        return self.idle_power(freq_ratio)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerPowerModel(nameplate={self.nameplate_w:.0f}W, "
            f"idle={self._idle_at_max:.0f}W, workers={self.num_workers})"
        )


class TypeSlotRegistry:
    """Append-only mapping of request types to dense slot indices.

    One registry is shared by every server of a rack, so all of them
    agree on one canonical slot order.  Slots are assigned in
    first-seen order; since which request starts service when is fully
    seed-determined (and identical across execution modes by the
    equivalence contract), the slot order is deterministic too.

    Types are keyed by ``name``: registering a *different* type under
    an already-registered name is rejected, because the cached factor
    tables would silently serve the wrong physics.
    """

    __slots__ = ("types", "_slots")

    def __init__(self) -> None:
        self.types: List[RequestType] = []
        self._slots: Dict[str, int] = {}

    def slot_of(self, rtype: RequestType) -> int:
        """Slot index of *rtype*, registering it on first sight."""
        slot = self._slots.get(rtype.name)
        if slot is not None:
            known = self.types[slot]
            if known is not rtype and known != rtype:
                raise ValueError(
                    f"request type name {rtype.name!r} re-registered with "
                    "different parameters; type names must be unique per "
                    "simulation"
                )
            return slot
        slot = len(self.types)
        self.types.append(rtype)
        self._slots[rtype.name] = slot
        return slot

    def __len__(self) -> int:
        return len(self.types)


class PowerEvalTable:
    """Cached per-(type-slot, DVFS-level) physics for one (model, ladder).

    The hot loops never call :meth:`RequestType.dynamic_power_factor` /
    :meth:`RequestType.speedup` directly — they read rows cached here,
    one float per registered type slot, materialised lazily per ladder
    level.  The cached values are exactly the floats the uncached calls
    would produce, so swapping the table in changes no result.
    """

    __slots__ = (
        "model",
        "ladder",
        "registry",
        "_factor_rows",
        "_speedup_rows",
        "_idle_by_level",
    )

    def __init__(
        self,
        model: ServerPowerModel,
        ladder: FrequencyLadder,
        registry: Optional[TypeSlotRegistry] = None,
    ) -> None:
        self.model = model
        self.ladder = ladder
        self.registry = registry if registry is not None else TypeSlotRegistry()
        self._factor_rows: Dict[int, List[float]] = {}
        self._speedup_rows: Dict[int, List[float]] = {}
        self._idle_by_level: List[float] = [
            model.idle_power(ladder.ratio(level))
            for level in range(ladder.max_level + 1)
        ]

    def slot_of(self, rtype: RequestType) -> int:
        """Delegate to the shared registry."""
        return self.registry.slot_of(rtype)

    def idle_power_at(self, level: int) -> float:
        """Idle floor (watts) at ladder *level*."""
        return self._idle_by_level[level]

    def factor_row(self, level: int) -> List[float]:
        """``dynamic_power_factor`` per slot at *level* (grown lazily)."""
        row = self._factor_rows.get(level)
        if row is None:
            row = []
            self._factor_rows[level] = row
        types = self.registry.types
        if len(row) < len(types):
            ratio = self.ladder.ratio(level)
            alpha = self.model.alpha
            for rtype in types[len(row):]:
                row.append(rtype.dynamic_power_factor(ratio, alpha=alpha))
        return row

    def speedup_row(self, level: int) -> List[float]:
        """``speedup`` per slot at *level* (grown lazily)."""
        row = self._speedup_rows.get(level)
        if row is None:
            row = []
            self._speedup_rows[level] = row
        types = self.registry.types
        if len(row) < len(types):
            ratio = self.ladder.ratio(level)
            for rtype in types[len(row):]:
                row.append(rtype.speedup(ratio))
        return row
