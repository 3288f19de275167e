"""Power-management scheme interface (paper Table 2).

Every evaluated scheme — Capping, Shaving, Token, Anti-DOPE — is a
:class:`PowerManagementScheme`: an object the simulation *binds* to the
rack/budget/battery/NLB once, then ticks every control slot.  Schemes
can additionally contribute a forwarding policy (Anti-DOPE's PDF) and
an admission filter (Token's bucket) to the ingress pipeline, so the
whole Table 2 matrix is expressed by swapping one object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .._validation import check_finite, check_positive
from .battery import Battery
from .budget import PowerBudget
from .sensor import SensorReading

__all__ = [
    "PowerManagementScheme",
    "NullScheme",
    "check_hysteresis",
    "highest_fitting_level",
    "highest_guarded_level",
    "servers_power_at_level",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.rack import Rack
    from ..cluster.server import Server
    from ..cluster.topology import PowerTopology
    from ..network.load_balancer import AdmissionFilter, ForwardingPolicy
    from ..sim.engine import EventEngine
    from .sensor import FaultyPowerSensor


def check_hysteresis(hysteresis: float) -> float:
    """Validate a raise-guard band: a fraction of the cap in ``[0, 0.5)``."""
    check_finite("hysteresis", hysteresis)
    if not 0.0 <= hysteresis < 0.5:
        raise ValueError(f"hysteresis must be in [0, 0.5), got {hysteresis!r}")
    return float(hysteresis)


def servers_power_at_level(servers: Iterable["Server"], level: int) -> float:
    """Power *servers* would draw if each moved to ladder *level* now.

    The one power prediction every controller shares: the sum of
    :meth:`~repro.cluster.server.Server.power_at_level`, left to right
    from 0.0, so a server that is not healthy adds 0 W.
    """
    total = 0.0
    for server in servers:
        total += server.power_at_level(level)
    return total


def highest_fitting_level(
    power_at: Callable[[int], float], cap_w: float, top: int, bottom: int = 0
) -> Optional[int]:
    """The first level, scanning from *top* down to *bottom*, that fits.

    A level fits when ``power_at(level) <= cap_w``.  This is the DVFS
    search every capping controller shares; ``power_at`` is called once
    per level tried, in descending order, and not past the first fit.
    Returns ``None`` when no level in the range fits (an empty range
    included).
    """
    for level in range(top, bottom - 1, -1):
        if power_at(level) <= cap_w:
            return level
    return None


def highest_guarded_level(
    power_at: Callable[[int], float],
    cap_w: float,
    guard_w: float,
    top: int,
    current: int,
) -> Optional[int]:
    """Highest level that fits *cap_w*; one above *current* must fit *guard_w*."""
    level = highest_fitting_level(power_at, guard_w, top, current + 1)
    if level is None:
        level = highest_fitting_level(power_at, cap_w, current)
    return level


class PowerManagementScheme:
    """Base class for Table 2 schemes.

    Subclasses override :meth:`step` (the per-slot control action) and
    optionally :meth:`forwarding_policy` / :meth:`admission_filter` to
    hook the NLB.  :meth:`bind` wires in the shared infrastructure and
    may be extended, but subclasses must call ``super().bind(...)``.

    The base is also the one capping controller: it predicts power at a
    DVFS level (:meth:`predict_power_at_level`), finds the highest level
    that fits a cap (:meth:`highest_level_within`) and applies it to the
    whole rack (:meth:`apply_uniform_cap`).

    Parameters
    ----------
    hysteresis:
        Raise-guard band as a fraction of the cap: a controller raises a
        level only when the predicted power stays below
        ``cap × (1 − hysteresis)``, so it does not chatter between
        adjacent levels around the cap.  Must lie in ``[0, 0.5)``.
    """

    #: Human-readable scheme name (Table 2 key).
    name: str = "base"

    def __init__(self, hysteresis: float = 0.02) -> None:
        self.hysteresis = check_hysteresis(hysteresis)
        self.engine: Optional[EventEngine] = None
        self.rack: Optional[Rack] = None
        self.budget: Optional[PowerBudget] = None
        self.battery: Optional[Battery] = None
        self.slot_s: float = 1.0
        self.bound = False
        # Optional power tree (hierarchical mode); None = flat rack.
        self.topology: Optional[PowerTopology] = None
        # Optional faultable sensing path (chaos layer); None = exact.
        self.power_sensor: Optional[FaultyPowerSensor] = None
        self.staleness_bound_s: float = 5.0
        self._last_good_reading: Optional[SensorReading] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(
        self,
        engine: EventEngine,
        rack: Rack,
        budget: PowerBudget,
        battery: Optional[Battery],
        slot_s: float,
        topology: Optional[PowerTopology] = None,
    ) -> None:
        """Attach the scheme to the simulated infrastructure.

        *topology* overlays a power tree on the rack (``None`` for the
        flat model).  The tree adds the per-PDU protection sweep to
        every control slot (when the spec opts in): after the scheme's
        own step, each rack and row node whose subtree still exceeds its
        budget gets capped independently — PDU protection belongs to the
        infrastructure, so it runs under every scheme including
        :class:`NullScheme`.
        """
        if self.bound:
            raise RuntimeError(f"scheme {self.name!r} already bound")
        self.engine = engine
        self.rack = rack
        self.budget = budget
        self.battery = battery
        self.slot_s = float(slot_s)
        self.topology = topology
        self.bound = True

    def step(self) -> None:
        """One control-slot action.  Default: do nothing."""

    def slot_tick(self) -> None:
        """Instrumented per-slot entry point: observe, then :meth:`step`.

        Records the control-slot counters every scheme shares — slots
        ticked, budget violations seen at slot entry (the power the
        *previous* decision produced, matching the meter's view), and
        slots in which the step discharged the battery — then delegates
        to the scheme's :meth:`step`.  The simulation facade schedules
        this instead of ``step`` so the counters exist for every scheme
        without any per-scheme code.
        """
        self._require_bound()
        counters = self.engine.obs.counters
        counters.inc("power.control_slots")
        if self.budget.deficit(self.rack.total_power()) > 0.0:
            counters.inc("power.budget_violation_slots")
        if self.battery is not None:
            delivered_before_j = self.battery.delivered_j
            self.step()
            if self.battery.delivered_j > delivered_before_j:
                counters.inc("power.battery_discharge_slots")
        else:
            self.step()
        if self.topology is not None and self.topology.spec.enforce_levels:
            self._enforce_node_budgets()

    # ------------------------------------------------------------------
    # NLB hooks
    # ------------------------------------------------------------------
    def forwarding_policy(self) -> Optional[ForwardingPolicy]:
        """Scheme-specific NLB policy, or ``None`` for the default."""
        return None

    def admission_filter(self) -> Optional[AdmissionFilter]:
        """Scheme-specific NLB shaper, or ``None`` for pass-through."""
        return None

    # ------------------------------------------------------------------
    # Shared control arithmetic
    # ------------------------------------------------------------------
    def _require_bound(self) -> None:
        if not self.bound:
            raise RuntimeError(f"scheme {self.name!r} used before bind()")

    def attach_power_sensor(
        self, sensor: "FaultyPowerSensor", staleness_bound_s: float = 5.0
    ) -> None:
        """Route :meth:`current_power` through *sensor*.

        The degradation contract: an ``ok`` reading refreshes the
        last-known-good value; a missing (dropout) or old (stale) reading
        is answered with last-known-good while its age stays within
        *staleness_bound_s*; beyond the bound the scheme must assume the
        worst case — full rack nameplate — which forces a throttle
        rather than letting a blind controller exceed the budget.
        """
        check_positive("staleness_bound_s", staleness_bound_s)
        self.power_sensor = sensor
        self.staleness_bound_s = float(staleness_bound_s)
        self._last_good_reading = None

    def current_power(self) -> float:
        """Instantaneous rack power as the scheme perceives it.

        Exact (``rack.total_power()``) without an attached sensor;
        otherwise the sensed value under the bounded-staleness contract
        of :meth:`attach_power_sensor`.
        """
        self._require_bound()
        if self.power_sensor is None:
            return self.rack.total_power()
        return self._sensed_power()

    def _sensed_power(self) -> float:
        """Sensor path with last-known-good / worst-case fallbacks."""
        now = self.engine.now
        reading = self.power_sensor.read(now)
        counters = self.engine.obs.counters
        if reading.ok:
            self._last_good_reading = reading
        last = self._last_good_reading
        if last is not None and now - last.time_s <= self.staleness_bound_s:
            if not reading.ok:
                counters.inc("power.sensor_stale_fallbacks")
            return last.power_w
        counters.inc("power.sensor_worst_case_fallbacks")
        return self.rack.nameplate_w

    def predict_power_at_level(
        self, level: int, servers: Optional[Sequence["Server"]] = None
    ) -> float:
        """Power of *servers* (default: the whole rack) if all moved to *level* now.

        Uses the servers' actual in-service request types, so the
        prediction is exact for the current instant — the idealised
        model-based capping controller the paper assumes RAPL provides.
        A server that is not healthy predicts 0 W, as it draws
        (:func:`servers_power_at_level`).
        """
        self._require_bound()
        self.engine.obs.counters.inc("power.prediction_evals")
        return servers_power_at_level(
            self.rack.servers if servers is None else servers,
            self.rack.ladder.clamp(level),
        )

    def highest_level_within(
        self,
        cap_w: float,
        servers: Optional[Sequence["Server"]] = None,
    ) -> int:
        """Highest uniform level keeping *servers*' predicted power ≤ *cap_w*.

        *servers* defaults to the whole rack.  Returns 0 (deepest
        throttle) when even the bottom of the ladder cannot satisfy the
        cap — power is then idle-floor dominated.
        """
        self._require_bound()
        level = highest_fitting_level(
            lambda candidate: self.predict_power_at_level(candidate, servers),
            cap_w,
            self.rack.ladder.max_level,
        )
        return 0 if level is None else level

    def apply_uniform_cap(self, cap_w: float) -> int:
        """Move every server to the best uniform level for *cap_w*.

        Returns the level chosen.  Raising frequency above the rack's
        current (lowest) level only happens when the predicted power at
        the higher level stays below the cap minus the hysteresis band.
        """
        self._require_bound()
        current = min(s.level for s in self.rack.servers)
        target = self.highest_level_within(cap_w)
        if target > current:
            guard = cap_w * (1.0 - self.hysteresis)
            raised = highest_fitting_level(
                self.predict_power_at_level, guard, target, current + 1
            )
            target = current if raised is None else raised
        self.rack.set_all_levels(target)
        return target

    # ------------------------------------------------------------------
    # Hierarchical (per-PDU) protection
    # ------------------------------------------------------------------
    def _enforce_node_budgets(self) -> None:
        """Cap every tree node whose subtree still exceeds its budget.

        Sweeps deepest nodes first (all racks, then rows; the feed is
        the scheme's own budget), re-reading subtree power after each
        cap so a parent only reacts to what its capped children still
        draw.  Levels only ever move *down* here — the scheme's global
        decision is a ceiling the PDU protection tightens per subtree.
        """
        counters = self.engine.obs.counters
        for node in self.topology.enforcement_order:
            servers = self.rack.servers[node.start : node.stop]
            power_w = 0.0
            for server in servers:
                power_w += server.current_power()
            if power_w <= node.budget_w:
                continue
            counters.inc(f"topology.cap_slots.{node.name}")
            target = self.highest_level_within(node.budget_w, servers)
            for server in servers:
                if server.level > target:
                    server.set_level(target)


class NullScheme(PowerManagementScheme):
    """No power management at all — the unconstrained reference arm.

    On a tree, per-PDU protection caps a node for one slot at a time.
    """

    name = "none"

    def __init__(self) -> None:
        super().__init__()  # no controller here reads the hysteresis band

    def step(self) -> None:
        """Hold every server at nominal frequency."""
        self._require_bound()
        self.rack.set_all_levels(self.rack.ladder.max_level)
