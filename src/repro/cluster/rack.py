"""Rack: the aggregation the power budget is enforced against.

The paper's testbed is a mini rack of four 100 W leaf nodes behind one
switch; its power budget scenarios (Normal/High/Medium/Low-PB) are all
fractions of the rack's total supplied power.  The :class:`Rack` is a
thin aggregate over :class:`~repro.cluster.server.Server` providing the
cluster-level views the power managers and meters need — total power,
total nameplate, per-server level vectors — plus bulk DVFS operations.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .._validation import check_int
from ..sim.engine import EventEngine
from .dvfs import FrequencyLadder
from .power_model import PowerEvalTable, ServerPowerModel
from .server import CompletionSink, Server

__all__ = ["Rack"]


class Rack:
    """A set of identical leaf servers sharing one power feed.

    Parameters
    ----------
    engine:
        Discrete-event engine.
    num_servers:
        Leaf-node count (paper: 4).
    rng:
        Seeded generator; each server gets an independent child stream
        so per-server noise is decorrelated but reproducible.
    power_model, ladder:
        Hardware models shared by all nodes.
    queue_capacity:
        Per-server backlog bound.
    completion_sink:
        Forwarded to every server.
    """

    def __init__(
        self,
        engine: EventEngine,
        num_servers: int = 4,
        rng: Optional[np.random.Generator] = None,
        power_model: Optional[ServerPowerModel] = None,
        ladder: Optional[FrequencyLadder] = None,
        queue_capacity: int = 512,
        completion_sink: Optional[CompletionSink] = None,
        queue_timeout_s: Optional[float] = None,
    ) -> None:
        check_int("num_servers", num_servers, minimum=1)
        self.engine = engine
        self.power_model = power_model or ServerPowerModel()
        self.ladder = ladder or FrequencyLadder()
        # One shared physics table: all servers agree on the type→slot
        # map and read the same cached per-level rows.
        self.eval_table = PowerEvalTable(self.power_model, self.ladder)
        base_rng = rng if rng is not None else np.random.default_rng(0)
        seeds = base_rng.integers(0, 2**63 - 1, size=num_servers)
        self.servers: List[Server] = [
            Server(
                server_id=i,
                engine=engine,
                rng=np.random.default_rng(int(seeds[i])),
                power_model=self.power_model,
                ladder=self.ladder,
                queue_capacity=queue_capacity,
                completion_sink=completion_sink,
                queue_timeout_s=queue_timeout_s,
                eval_table=self.eval_table,
            )
            for i in range(num_servers)
        ]

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def num_servers(self) -> int:
        """Number of leaf nodes."""
        return len(self.servers)

    @property
    def nameplate_w(self) -> float:
        """Total faceplate power of the rack."""
        return self.power_model.nameplate_w * len(self.servers)

    def total_power(self) -> float:
        """Instantaneous rack power draw (watts).

        The left-to-right sum of per-server cached evaluations: a server
        re-evaluates its power only when its load or level changed.
        """
        return sum(s.current_power() for s in self.servers)

    def per_server_power(self) -> List[float]:
        """Instantaneous per-server power draws, in rack order.

        The per-element view :meth:`total_power` reduces over; the power
        topology layer slices it into per-subtree (rack PDU / row PDU /
        feed) readings.
        """
        return [s.current_power() for s in self.servers]

    def total_energy_joules(self) -> float:
        """Total energy consumed by all servers so far."""
        return sum(s.energy_joules() for s in self.servers)

    def idle_floor(self) -> float:
        """Rack power with the healthy servers idle at their current levels."""
        return sum(
            s.power_model.idle_power(s.freq_ratio) for s in self.servers if s.healthy
        )

    def levels(self) -> List[int]:
        """Per-server frequency levels (rack order)."""
        return [s.level for s in self.servers]

    def total_in_system(self) -> int:
        """Requests queued or in service anywhere in the rack."""
        return sum(s.in_system for s in self.servers)

    # ------------------------------------------------------------------
    # Bulk DVFS operations
    # ------------------------------------------------------------------
    def set_all_levels(self, level: int) -> None:
        """Set every server to the same frequency level."""
        for server in self.servers:
            server.set_level(level)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Rack({len(self.servers)} servers, "
            f"nameplate={self.nameplate_w:.0f}W, P={self.total_power():.1f}W)"
        )
