"""Auto-scaling resource allocation.

The paper's threat analysis leans on a property of production clouds:
"current data centers excessively rely on network load balancer (NLB)
and auto-scaling resource allocation to provide built-in defenses
against DDoS attacks … As a result, hostile requests can generate the
maximum possible load on their targeted servers without prior
detection."  Auto-scaling treats every request as worth serving, so a
DOPE flood does not just heat the servers it lands on — it recruits
*more* servers, pulling the whole rack toward its aggregate peak and
defeating the statistical assumption power oversubscription rests on.

:class:`AutoScaler` implements the classic utilisation-band policy:
keep a subset of the rack powered and in the load-balancer rotation,
scale out when mean utilisation crosses the high-water mark, scale in
(drain, then power-gate) when it falls below the low-water mark, with
a cooldown between actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .._validation import check_fraction, check_int, check_positive, require
from ..network.load_balancer import NetworkLoadBalancer
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_MONITOR
from .rack import Rack
from .server import Server

__all__ = [
    "ScalingEvent",
    "AutoScalerStats",
    "AutoScaler",
]


@dataclass
class ScalingEvent:
    """One recorded scaling action."""

    time_s: float
    action: str  # "out" | "in"
    active_after: int
    mean_utilization: float


@dataclass
class AutoScalerStats:
    """Counters and history."""

    scale_outs: int = 0
    scale_ins: int = 0
    events: List[ScalingEvent] = field(default_factory=list)


class AutoScaler:
    """Utilisation-band auto-scaler over one rack.

    Parameters
    ----------
    engine, rack, nlb:
        Simulation wiring.  The scaler reassigns ``nlb.rotation`` so the
        balancer only routes to in-rotation nodes.  Only round-robin
        reads the rotation: PDF, the online detector and the fabric
        route over pools of their own.
    min_active, max_active:
        Bounds on the active set (defaults: 1 … all servers).
    high_util, low_util:
        Scale-out / scale-in thresholds on mean busy-worker fraction of
        the active set.
    interval_s:
        Seconds between scaler evaluations.
    cooldown_s:
        Minimum time between consecutive scaling actions.
    """

    def __init__(
        self,
        engine: EventEngine,
        rack: Rack,
        nlb: NetworkLoadBalancer,
        min_active: int = 1,
        max_active: Optional[int] = None,
        high_util: float = 0.7,
        low_util: float = 0.3,
        interval_s: float = 5.0,
        cooldown_s: float = 10.0,
    ) -> None:
        check_int("min_active", min_active, minimum=1)
        max_active = max_active if max_active is not None else rack.num_servers
        check_int("max_active", max_active, minimum=min_active)
        require(
            max_active <= rack.num_servers,
            f"max_active ({max_active}) exceeds rack size ({rack.num_servers})",
        )
        check_fraction("high_util", high_util, inclusive=False)
        check_fraction("low_util", low_util)
        require(low_util < high_util, "low_util must be < high_util")
        check_positive("interval_s", interval_s)
        check_positive("cooldown_s", cooldown_s)

        self.engine = engine
        self.rack = rack
        self.nlb = nlb
        self.min_active = min_active
        self.max_active = max_active
        self.high_util = high_util
        self.low_util = low_util
        self.interval_s = float(interval_s)
        self.cooldown_s = float(cooldown_s)
        self.stats = AutoScalerStats()
        self._last_action_t = -float("inf")
        self._draining: List[Server] = []
        self._stop: Optional[Callable[[], None]] = None

        # Start with the minimum footprint: first min_active servers in
        # rotation, the rest power-gated.
        self.active: List[Server] = list(rack.servers[:min_active])
        for server in rack.servers[min_active:]:
            server.set_powered(False)
        self._sync_rotation()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic evaluation."""
        if self._stop is not None:
            raise RuntimeError("autoscaler already started")
        self._stop = self.engine.every(
            self.interval_s, self.step, priority=PRIORITY_MONITOR
        )

    def stop(self) -> None:
        """Stop evaluating (rotation stays as-is)."""
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------
    def mean_utilization(self) -> float:
        """Mean busy-worker fraction over the active set."""
        if not self.active:
            return 0.0
        return sum(s.busy_workers / s.num_workers for s in self.active) / len(
            self.active
        )

    def step(self) -> None:
        """One evaluation: finish drains, then scale if out of band."""
        self._finish_drains()
        util = self.mean_utilization()
        now = self.engine.now
        if now - self._last_action_t < self.cooldown_s:
            return
        if util > self.high_util and len(self.active) < self.max_active:
            self._scale_out(util)
            self._last_action_t = now
        elif util < self.low_util and len(self.active) > self.min_active:
            self._scale_in(util)
            self._last_action_t = now

    def _scale_out(self, util: float) -> None:
        # Reactivate a draining server if one exists, else wake a cold one.
        if self._draining:
            server = self._draining.pop()
        else:
            server = next(
                s
                for s in self.rack.servers
                if not s.powered_on and s not in self.active
            )
            server.set_powered(True)
        self.active.append(server)
        self.active.sort(key=lambda s: s.server_id)
        self._sync_rotation()
        self.stats.scale_outs += 1
        self.stats.events.append(
            ScalingEvent(self.engine.now, "out", len(self.active), util)
        )

    def _scale_in(self, util: float) -> None:
        server = self.active.pop()  # drain the highest-id active node
        self._draining.append(server)
        self._sync_rotation()
        self.stats.scale_ins += 1
        self.stats.events.append(
            ScalingEvent(self.engine.now, "in", len(self.active), util)
        )

    def _finish_drains(self) -> None:
        still = []
        for server in self._draining:
            if server.in_system == 0:
                server.set_powered(False)
            else:
                still.append(server)
        self._draining = still

    def _sync_rotation(self) -> None:
        self.nlb.rotation.assign(self.active)

    @property
    def num_active(self) -> int:
        """Servers currently in the balancer rotation."""
        return len(self.active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AutoScaler(active={self.num_active}/{self.rack.num_servers}, "
            f"util={self.mean_utilization():.2f})"
        )
