"""Hierarchical power topology: server → rack PDU → row PDU → DC feed.

The paper's testbed is one flat rack behind one meter, but its threat —
attack power concentrating where the budget meter is not looking — only
becomes expressible with a multi-level power tree.  Real facilities
oversubscribe *per level* (Kumbhare et al.): each rack PDU, row PDU and
the DC feed carries its own budget, and the provisioned supply shrinks
towards the root because sibling subtrees are assumed not to peak
simultaneously.  A flood that concentrates on one rack can therefore
trip that rack's PDU while the DC-feed meter still reads under budget.

:class:`PowerTopology` overlays this tree on the existing flat
:class:`~repro.cluster.rack.Rack`: every tree node owns a *contiguous
slice* of the rack's server list, so the single-rack hot path (NLB
rotation, per-server power evaluation, metering) is untouched and the
tree is pure bookkeeping on top.  Node power is always the left-to-right
Python sum over the node's leaf slice — the same reduction order as
``Rack.total_power`` — so per-level readings are bit-identical to the
sum of their leaf servers in both scalar and batched engine modes.

The ``"flat"`` topology is the absence of a tree: no nodes, no monitor,
no fabric, no extra counters, byte-identical to the pre-topology model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .._validation import check_int, check_positive, require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import EventEngine
    from .rack import Rack

__all__ = [
    "TopologySpec",
    "PowerNode",
    "PowerTopology",
    "TopologyMonitor",
    "named_topology",
    "topology_names",
    "FLAT_TOPOLOGY",
]

#: The reserved name of the treeless single-rack model.
FLAT_TOPOLOGY = "flat"


@dataclass(frozen=True)
class TopologySpec:
    """Shape and oversubscription policy of one power tree.

    Parameters
    ----------
    name:
        Registry key (``--topology`` value).
    rows, racks_per_row, servers_per_rack:
        Tree fan-out; total fleet is the product.
    num_spines:
        Spine switches of the fabric's 2-tier fat-tree; the ECMP path
        space is ``num_spines × num_racks``.
    flowlet_gap_s:
        Idle gap after which a flow re-hashes to a new path; ``None``
        disables flowlet switching (pure per-flow ECMP pinning).
    rack_oversub, row_oversub, feed_oversub:
        Per-level budget multipliers on the subtree nameplate.  Budgets
        shrink towards the root (``feed < row < rack``): that is the
        oversubscription bet DOPE attacks exploit.
    enforce_levels:
        Whether per-node PDU protection caps DVFS levels each control
        slot.  ``False`` models unprotected PDUs (the vulnerability
        arm): violations are observed, not corrected.
    """

    name: str
    rows: int
    racks_per_row: int
    servers_per_rack: int
    num_spines: int = 2
    flowlet_gap_s: Optional[float] = 0.05
    rack_oversub: float = 1.0
    row_oversub: float = 0.95
    feed_oversub: float = 0.85
    enforce_levels: bool = True

    def __post_init__(self) -> None:
        require(self.name != FLAT_TOPOLOGY, "the flat topology has no spec")
        check_int("rows", self.rows, minimum=1)
        check_int("racks_per_row", self.racks_per_row, minimum=1)
        check_int("servers_per_rack", self.servers_per_rack, minimum=1)
        check_int("num_spines", self.num_spines, minimum=1)
        if self.flowlet_gap_s is not None:
            check_positive("flowlet_gap_s", self.flowlet_gap_s)
        for field in ("rack_oversub", "row_oversub", "feed_oversub"):
            value = getattr(self, field)
            check_positive(field, value)
            require(value <= 1.0, f"{field} must be <= 1, got {value!r}")

    @property
    def num_racks(self) -> int:
        """Total rack count across all rows."""
        return self.rows * self.racks_per_row

    @property
    def total_servers(self) -> int:
        """Leaf fleet size the tree requires."""
        return self.num_racks * self.servers_per_rack


#: Named tree presets.  ``tree-small`` is the CI smoke tree (2 racks);
#: ``tree-dc`` is the managed 16-server reference DC; ``tree-pinned``
#: is the vulnerability arm — flowlet switching off (flows pin their
#: hashed rack) and PDU protection off, the configuration under which a
#: concentrated flood demonstrably trips a rack PDU while the DC feed
#: stays under budget.
_TOPOLOGIES: Dict[str, TopologySpec] = {
    spec.name: spec
    for spec in (
        TopologySpec(
            name="tree-small",
            rows=1,
            racks_per_row=2,
            servers_per_rack=4,
        ),
        TopologySpec(
            name="tree-dc",
            rows=2,
            racks_per_row=2,
            servers_per_rack=4,
        ),
        TopologySpec(
            name="tree-pinned",
            rows=2,
            racks_per_row=2,
            servers_per_rack=4,
            flowlet_gap_s=None,
            enforce_levels=False,
        ),
    )
}


def topology_names() -> Tuple[str, ...]:
    """Every accepted ``--topology`` value, flat first."""
    return (FLAT_TOPOLOGY,) + tuple(sorted(_TOPOLOGIES))


def named_topology(name: str) -> TopologySpec:
    """The preset registered under *name* (flat has no spec)."""
    require(
        name in _TOPOLOGIES,
        f"unknown topology {name!r}; tree presets: {sorted(_TOPOLOGIES)}",
    )
    return _TOPOLOGIES[name]


@dataclass(frozen=True)
class PowerNode:
    """One PDU/feed in the tree, owning a contiguous leaf slice."""

    name: str
    kind: str  # "feed" | "row" | "rack"
    depth: int  # 0 = feed, 1 = row, 2 = rack
    start: int  # first global server index (inclusive)
    stop: int  # last global server index (exclusive)
    budget_w: float
    parent: Optional[str]
    children: Tuple[str, ...]

    @property
    def num_servers(self) -> int:
        """Leaf servers under this node."""
        return self.stop - self.start


class PowerTopology:
    """The power tree overlaid on a flat server list.

    Parameters
    ----------
    spec:
        Tree shape and oversubscription policy.
    server_nameplate_w:
        Faceplate power of one leaf server.
    budget_fraction:
        The run's provisioning scenario
        (:attr:`~repro.power.budget.BudgetLevel.fraction`); node budget
        is ``leaf count × nameplate × fraction × per-level oversub``.
    """

    def __init__(
        self,
        spec: TopologySpec,
        server_nameplate_w: float,
        budget_fraction: float,
    ) -> None:
        check_positive("server_nameplate_w", server_nameplate_w)
        check_positive("budget_fraction", budget_fraction)
        require(
            budget_fraction <= 1.0,
            f"budget_fraction must be <= 1, got {budget_fraction!r}",
        )
        self.spec = spec
        self.server_nameplate_w = float(server_nameplate_w)
        self.budget_fraction = float(budget_fraction)
        self.nodes: Dict[str, PowerNode] = {}
        self._build()
        #: Deepest-first sweep order for per-node enforcement: every
        #: rack before any row, rows before the feed, so child caps are
        #: already in place when a parent checks its own budget.
        self.enforcement_order: List[PowerNode] = [
            n for n in self.nodes.values() if n.kind == "rack"
        ] + [n for n in self.nodes.values() if n.kind == "row"]

    def _build(self) -> None:
        spec = self.spec
        row_names = tuple(f"row{r}" for r in range(spec.rows))
        self.nodes["feed"] = PowerNode(
            name="feed",
            kind="feed",
            depth=0,
            start=0,
            stop=spec.total_servers,
            budget_w=self._node_budget_w(spec.total_servers, spec.feed_oversub),
            parent=None,
            children=row_names,
        )
        for r in range(spec.rows):
            racks = tuple(
                f"rack{r * spec.racks_per_row + p}"
                for p in range(spec.racks_per_row)
            )
            row_span = spec.racks_per_row * spec.servers_per_rack
            self.nodes[f"row{r}"] = PowerNode(
                name=f"row{r}",
                kind="row",
                depth=1,
                start=r * row_span,
                stop=(r + 1) * row_span,
                budget_w=self._node_budget_w(row_span, spec.row_oversub),
                parent="feed",
                children=racks,
            )
        for k in range(spec.num_racks):
            self.nodes[f"rack{k}"] = PowerNode(
                name=f"rack{k}",
                kind="rack",
                depth=2,
                start=k * spec.servers_per_rack,
                stop=(k + 1) * spec.servers_per_rack,
                budget_w=self._node_budget_w(
                    spec.servers_per_rack, spec.rack_oversub
                ),
                parent=f"row{k // spec.racks_per_row}",
                children=(),
            )

    def _node_budget_w(self, num_servers: int, oversub: float) -> float:
        return (
            num_servers
            * self.server_nameplate_w
            * self.budget_fraction
            * oversub
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def feed(self) -> PowerNode:
        """The tree root (DC feed)."""
        return self.nodes["feed"]

    def node(self, name: str) -> PowerNode:
        """The node registered as *name*."""
        require(
            name in self.nodes,
            f"unknown topology node {name!r}; have {list(self.nodes)}",
        )
        return self.nodes[name]

    def servers_under(self, name: str) -> range:
        """Global indices of every leaf server in *name*'s subtree."""
        node = self.node(name)
        return range(node.start, node.stop)

    # ------------------------------------------------------------------
    # Power views
    # ------------------------------------------------------------------
    def node_power_w(self, name: str, rack: "Rack") -> float:
        """Instantaneous power of *name*'s subtree.

        Left-to-right sum over the node's leaf slice — the exact
        reduction order of ``Rack.total_power`` — so the feed reading is
        bit-identical to the flat rack total and every node reading is
        bit-identical to the sum of its leaf servers.
        """
        node = self.node(name)
        total = 0.0
        for value in rack.per_server_power()[node.start : node.stop]:
            total += value
        return total

    def per_node_power(self, rack: "Rack") -> Dict[str, float]:
        """Instantaneous power of every node, keyed by node name.

        One per-server evaluation feeds every subtree reduction; each
        reduction is the same left-to-right sum as :meth:`node_power_w`.
        ``numpy`` pairwise reductions are deliberately avoided: they
        regroup additions and would break the bit-identity of per-level
        readings with the sum of their leaf servers.
        """
        per_server = rack.per_server_power()
        powers: Dict[str, float] = {}
        for node in self.nodes.values():
            total = 0.0
            for value in per_server[node.start : node.stop]:
                total += value
            powers[node.name] = total
        return powers


class TopologyMonitor:
    """Fixed-interval sampler of per-node power against per-node budgets.

    The tree-mode sibling of :class:`~repro.power.meter.PowerMeter`:
    every sample checks each tree node against its budget and attributes
    the violation to the *deepest* violating node — a violated rack
    blames the rack, not the row above it, so exported metrics point at
    the PDU that would physically trip.  The monitor keeps each node's
    peak; its tallies are the engine's
    ``topology.violation_slots.<node>`` and
    ``topology.deepest_violation_slots.<node>`` counters.
    """

    def __init__(
        self,
        engine: "EventEngine",
        rack: "Rack",
        topology: PowerTopology,
    ) -> None:
        self.engine = engine
        self.rack = rack
        self.topology = topology
        self.peak_w: Dict[str, float] = {name: 0.0 for name in topology.nodes}
        self._started = False

    def start(self, interval_s: float) -> None:
        """Begin sampling every *interval_s* (immediate first sample)."""
        check_positive("interval_s", interval_s)
        if self._started:
            raise RuntimeError("topology monitor already started")
        self._started = True
        self.sample()
        from ..sim.events import PRIORITY_MONITOR

        self.engine.every(interval_s, self.sample, priority=PRIORITY_MONITOR)

    def sample(self) -> Dict[str, float]:
        """Snapshot every node now; returns the per-node powers."""
        counters = self.engine.obs.counters
        powers = self.topology.per_node_power(self.rack)
        violated: Dict[str, bool] = {}
        for name, power_w in powers.items():
            node = self.topology.nodes[name]
            if power_w > self.peak_w[name]:
                self.peak_w[name] = power_w
            violated[name] = power_w > node.budget_w
            if violated[name]:
                counters.inc(f"topology.violation_slots.{name}")
        for name, is_violated in violated.items():
            node = self.topology.nodes[name]
            if is_violated and not any(
                violated[child] for child in node.children
            ):
                counters.inc(f"topology.deepest_violation_slots.{name}")
        return powers

    def deepest_violator(self) -> Optional[str]:
        """The node most often the deepest violation site, or ``None``."""
        counters = self.engine.obs.counters
        best: Optional[str] = None
        best_slots = 0
        for name in self.topology.nodes:
            slots = counters.get(f"topology.deepest_violation_slots.{name}")
            if slots > best_slots:
                best, best_slots = name, slots
        return best

    def report(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready per-node summary (budget, peak, violation slots)."""
        counters = self.engine.obs.counters
        out: Dict[str, Dict[str, object]] = {}
        for name, node in self.topology.nodes.items():
            out[name] = {
                "kind": node.kind,
                "depth": node.depth,
                "servers": [node.start, node.stop],
                "budget_w": node.budget_w,
                "peak_w": self.peak_w[name],
                "violation_slots": counters.get(
                    f"topology.violation_slots.{name}"
                ),
                "deepest_violation_slots": counters.get(
                    f"topology.deepest_violation_slots.{name}"
                ),
            }
        return out
