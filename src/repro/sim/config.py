"""Simulation configuration.

One frozen dataclass gathers every knob of the simulated data center so
a run is reproducible from ``(config, scheme, traffic, seed)`` alone.
Defaults reproduce the paper's scaled-down testbed: a four-node rack of
100 W servers on the 1.2–2.4 GHz ladder, a 2-minute rack UPS, a
DDoS-deflate-style firewall at 150 req/s and 1-second control slots.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from .._validation import (
    check_fraction,
    check_int,
    check_positive,
    require,
)
from ..power.budget import BudgetLevel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.topology import TopologySpec

__all__ = ["SimulationConfig"]

#: Fields added after the first config version.  Each serialises only
#: when it differs from its declared default, so configs from before it
#: hash identically (what keeps ``--topology flat`` byte-identical to
#: pre-tree runs and cached experiment ids valid).
_LATE_FIELDS = ("topology", "detect_placement", "prediction_horizon_s")


@dataclass(frozen=True)
class SimulationConfig:
    """All infrastructure knobs of one simulated data center."""

    # --- rack / topology --------------------------------------------
    num_servers: int = 4
    #: Power-tree preset name; ``"flat"`` is the treeless paper model
    #: and serialises *without* the key so pre-topology configs hash
    #: identically (the ``--topology flat`` byte-identity contract).
    topology: str = "flat"
    nameplate_w: float = 100.0
    workers_per_server: int = 8
    queue_capacity: int = 512
    queue_timeout_s: Optional[float] = None
    idle_fraction: float = 0.38
    alpha: float = 2.4

    # --- power ------------------------------------------------------
    budget_level: BudgetLevel = BudgetLevel.NORMAL
    slot_s: float = 1.0
    use_battery: bool = True
    battery_sustain_s: float = 120.0
    battery_efficiency: float = 0.9

    # --- network ----------------------------------------------------
    use_firewall: bool = True
    firewall_threshold_rps: float = 150.0
    firewall_poll_s: float = 10.0
    firewall_ban_s: float = 600.0

    # --- measurement ------------------------------------------------
    meter_interval_s: float = 1.0

    # --- online detection -------------------------------------------
    #: Quarantine-pool placement of the ``online-detect`` scheme:
    #: ``"dc"`` carves one pool at the end of rack order, ``"row"``
    #: isolates one server per row of a power tree.  The default
    #: serialises *without* the key (same contract as ``topology``) so
    #: pre-detector configs hash identically.
    detect_placement: str = "dc"

    # --- prediction-based oversubscription --------------------------
    #: Power-history horizon of the ``prediction`` scheme: the decaying
    #: observed-max floor fades over roughly this many seconds and the
    #: percentile estimator is paced to traverse the nameplate range in
    #: the same window.  The default serialises *without* the key (same
    #: contract as ``topology``) so pre-predictor configs hash
    #: identically.
    prediction_horizon_s: float = 60.0

    # --- reproducibility --------------------------------------------
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("num_servers", self.num_servers, minimum=1)
        # Late import: cluster.topology sits below sim in the layering
        # DAG but importing it at module scope would cycle through the
        # cluster package while repro.sim is still initialising.
        from ..cluster.topology import FLAT_TOPOLOGY, named_topology, topology_names

        require(
            self.topology in topology_names(),
            f"unknown topology {self.topology!r}; "
            f"choose one of {list(topology_names())}",
        )
        if self.topology != FLAT_TOPOLOGY:
            spec = named_topology(self.topology)
            require(
                self.num_servers == spec.total_servers,
                f"topology {self.topology!r} wires {spec.total_servers} "
                f"servers, config has num_servers={self.num_servers}; "
                "use SimulationConfig.for_topology to size the fleet",
            )
        check_positive("nameplate_w", self.nameplate_w)
        check_int("workers_per_server", self.workers_per_server, minimum=1)
        check_int("queue_capacity", self.queue_capacity, minimum=0)
        if self.queue_timeout_s is not None:
            check_positive("queue_timeout_s", self.queue_timeout_s)
        check_fraction("idle_fraction", self.idle_fraction, inclusive=False)
        check_positive("alpha", self.alpha)
        check_positive("slot_s", self.slot_s)
        check_positive("battery_sustain_s", self.battery_sustain_s)
        check_fraction("battery_efficiency", self.battery_efficiency, inclusive=False)
        check_positive("firewall_threshold_rps", self.firewall_threshold_rps)
        check_positive("firewall_poll_s", self.firewall_poll_s)
        check_positive("firewall_ban_s", self.firewall_ban_s)
        check_positive("meter_interval_s", self.meter_interval_s)
        require(
            self.detect_placement in ("dc", "row"),
            f"detect_placement must be 'dc' or 'row', "
            f"got {self.detect_placement!r}",
        )
        check_positive("prediction_horizon_s", self.prediction_horizon_s)
        check_int("seed", self.seed, minimum=0)

    @property
    def rack_nameplate_w(self) -> float:
        """Total rack faceplate power (the Normal-PB supply)."""
        return self.nameplate_w * self.num_servers

    @property
    def topology_spec(self) -> Optional["TopologySpec"]:
        """The tree preset, or ``None`` for the flat model."""
        from ..cluster.topology import FLAT_TOPOLOGY, named_topology

        if self.topology == FLAT_TOPOLOGY:
            return None
        return named_topology(self.topology)

    @classmethod
    def for_topology(cls, name: str, **kwargs: Any) -> "SimulationConfig":
        """A config sized for topology *name* (fleet size from the spec)."""
        from ..cluster.topology import FLAT_TOPOLOGY, named_topology

        if name != FLAT_TOPOLOGY:
            kwargs.setdefault("num_servers", named_topology(name).total_servers)
        return cls(topology=name, **kwargs)

    @property
    def supply_w(self) -> float:
        """Provisioned supply at the configured budget level."""
        return self.rack_nameplate_w * self.budget_level.fraction

    def with_budget(self, level: BudgetLevel) -> "SimulationConfig":
        """Copy of this config at a different provisioning level."""
        return replace(self, budget_level=level)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Copy of this config with a different master seed."""
        return replace(self, seed=seed)

    def without_firewall(self) -> "SimulationConfig":
        """Copy with the perimeter defence disabled (Fig. 10's solid lines)."""
        return replace(self, use_firewall=False)

    # ------------------------------------------------------------------
    # Serialisation (experiment manifests)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; the budget level serialises as its name."""
        out = asdict(self)
        out["budget_level"] = self.budget_level.name
        for name in _LATE_FIELDS:
            # Exact match only: a value merely close to the default is a
            # different config and must keep its key, or it would share
            # the default's hash and round-trip back to the default.
            if out[name] == self.__dataclass_fields__[name].default:
                del out[name]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        payload = dict(data)
        level = payload.get("budget_level")
        if isinstance(level, str):
            payload["budget_level"] = BudgetLevel[level]
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**payload)
