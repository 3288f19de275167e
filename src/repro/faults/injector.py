"""Fault injector: arms a :class:`~repro.faults.plan.FaultPlan`.

The injector is the bridge between a pure-data fault plan and a live
:class:`~repro.sim.simulation.DataCenterSimulation`.  :meth:`arm` first
checks every event against the simulation (not in its past, a crash
target inside the rack, a scoped trip on a tree that has the node, a
battery fault only where there is a battery) and then does two things:

* attaches a :class:`~repro.power.sensor.FaultyPowerSensor` between the
  rack and the scheme (noise drawn from ``SeedSequence([seed, 1])``, a
  stream no other component touches), so meter faults degrade what the
  controller *sees* while the physics stay exact;
* schedules every plan event on the engine at ``PRIORITY_MONITOR`` —
  faults land *before* the same-instant control action, the same
  ordering a real monitoring plane gives a real controller.

Degradation paths exercised when faults fire:

* a crashed server sheds queued requests back to the NLB
  (:meth:`~repro.network.load_balancer.NetworkLoadBalancer.reroute`)
  and fails in-flight ones as ``FAILED_SERVER`` terminal events;
* the NLB retries no-backend requests with capped exponential backoff
  (its :class:`~repro.network.load_balancer.RetryPolicy`);
* schemes fall back to last-known-good meter readings under the
  bounded-staleness guard of
  :meth:`~repro.power.manager.PowerManagementScheme.attach_power_sensor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from .._validation import check_positive
from ..power.sensor import FaultyPowerSensor
from ..sim.events import PRIORITY_MONITOR
from .plan import FaultEvent, FaultKind, FaultPlan

__all__ = ["FaultInjector"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.simulation import DataCenterSimulation

#: SeedSequence spawn key of the sensor-noise stream.  Chaos payloads
#: depend on its value.
_NOISE_STREAM = 1


class FaultInjector:
    """Applies a fault plan to one simulation.

    Parameters
    ----------
    sim:
        The target simulation (engine must not have passed the earliest
        plan event yet).
    plan:
        The fault schedule.
    staleness_bound_s:
        Bounded-staleness window handed to the schemes' sensor fallback:
        meter readings older than this make the scheme assume worst-case
        nameplate draw.

    The scheme's power observations are always routed through the
    faultable sensor, even when the plan contains no meter faults, so
    the observation path is identical across the faulted and unfaulted
    arms of a comparison.
    """

    def __init__(
        self,
        sim: "DataCenterSimulation",
        plan: FaultPlan,
        staleness_bound_s: float = 5.0,
    ) -> None:
        check_positive("staleness_bound_s", staleness_bound_s)
        self.sim = sim
        self.plan = plan
        self.staleness_bound_s = float(staleness_bound_s)
        self.sensor: FaultyPowerSensor = FaultyPowerSensor(
            sim.rack,
            rng=np.random.default_rng(
                np.random.SeedSequence([plan.seed, _NOISE_STREAM])
            ),
        )
        self._armed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Check the plan, attach the sensor and schedule every event (once).

        An event the simulation cannot apply raises ``ValueError`` naming
        its index, kind and target before anything is attached or
        scheduled, and the injector stays unarmed.
        """
        if self._armed:
            raise RuntimeError("fault injector already armed")
        for index, event in enumerate(self.plan.events):
            problem = self._problem(event)
            if problem:
                target = event.node or event.target
                raise ValueError(
                    f"fault event {index} ({event.kind.value}, target "
                    f"{target!r}): {problem}"
                )
        self._armed = True
        self.sim.scheme.attach_power_sensor(
            self.sensor, staleness_bound_s=self.staleness_bound_s
        )
        for event in self.plan.events:
            self.sim.engine.schedule_at(
                event.time_s,
                lambda e=event: self._apply(e),
                priority=PRIORITY_MONITOR,
            )

    def _problem(self, event: FaultEvent) -> str:
        """Why *event* cannot be applied to the simulation ("" if it can)."""
        now = self.sim.engine.now
        if event.time_s < now:
            return f"time {event.time_s} s is in the past (now {now} s)"
        num_servers = self.sim.rack.num_servers
        if event.kind is FaultKind.SERVER_CRASH and not (
            0 <= event.target < num_servers
        ):
            return f"the rack has servers 0..{num_servers - 1}"
        if event.kind is FaultKind.PDU_TRIP and event.node:
            topology = self.sim.topology
            if topology is None:
                return "a node-scoped trip needs a power tree, not the flat topology"
            if event.node not in topology.nodes:
                return f"the power tree has nodes {list(topology.nodes)}"
        if (
            event.kind in (FaultKind.BATTERY_FADE, FaultKind.BATTERY_STUCK)
            and self.sim.battery is None
        ):
            return "the simulation has no battery"
        return ""

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        self.sim.obs.counters.inc(f"faults.injected.{kind.value}")
        handler = {
            FaultKind.SERVER_CRASH: self._server_crash,
            FaultKind.PDU_TRIP: self._pdu_trip,
            FaultKind.METER_DROPOUT: self._meter_dropout,
            FaultKind.METER_STALE: self._meter_stale,
            FaultKind.METER_NOISE: self._meter_noise,
            FaultKind.BATTERY_FADE: self._battery_fade,
            FaultKind.BATTERY_STUCK: self._battery_stuck,
        }[kind]
        handler(event)

    def _server_crash(self, event: FaultEvent) -> None:
        server = self.sim.rack.servers[event.target]
        server.fail(shed_sink=self.sim.nlb.reroute)
        self.sim.engine.schedule(
            event.params["duration_s"],
            server.recover,
            priority=PRIORITY_MONITOR,
        )

    def _pdu_trip(self, event: FaultEvent) -> None:
        """Fail the tripped PDU's whole subtree (cascade semantics).

        An un-scoped event keeps the legacy behaviour — every server
        trips (the flat model has exactly one PDU).  A node-scoped event
        (which :meth:`arm` checked against the power tree) takes down the
        named node's subtree only: a row trip cascades into all of its
        racks' servers, the rest of the facility keeps serving.
        """
        if event.node:
            victims = [
                self.sim.rack.servers[i]
                for i in self.sim.topology.servers_under(event.node)
            ]
            self.sim.obs.counters.inc(f"topology.pdu_trips.{event.node}")
        else:
            victims = list(self.sim.rack.servers)
        tripped: List[int] = []
        for server in victims:
            if server.healthy:
                tripped.append(server.server_id)
                server.fail(shed_sink=self.sim.nlb.reroute)

        def restore() -> None:
            for server_id in tripped:
                self.sim.rack.servers[server_id].recover()

        self.sim.engine.schedule(
            event.params["duration_s"], restore, priority=PRIORITY_MONITOR
        )

    def _meter_dropout(self, event: FaultEvent) -> None:
        self.sensor.start_dropout(
            self.sim.engine.now, event.params["duration_s"]
        )

    def _meter_stale(self, event: FaultEvent) -> None:
        self.sensor.start_stale(
            self.sim.engine.now, event.params["duration_s"]
        )

    def _meter_noise(self, event: FaultEvent) -> None:
        self.sensor.set_noise(
            event.params["sigma_w"], event.params.get("bias_w", 0.0)
        )

    def _battery_fade(self, event: FaultEvent) -> None:
        self.sim.battery.apply_capacity_fade(event.params["fraction"])

    def _battery_stuck(self, event: FaultEvent) -> None:
        battery = self.sim.battery
        battery.set_stuck(True)
        self.sim.engine.schedule(
            event.params["duration_s"],
            lambda: battery.set_stuck(False),
            priority=PRIORITY_MONITOR,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector({len(self.plan)} events, armed={self._armed})"
        )
