"""Anti-DOPE: the full framework (paper Section 5, Table 2 row 4).

Anti-DOPE couples the two halves the rest of this package provides:

* **PDF** (:mod:`repro.core.pdf`) on the load-balancer side splits
  traffic by the offline suspect list and isolates high-power requests
  on a dedicated server pool;
* **RPM** on the power-manager side enforces the budget with
  differentiated DVFS (DPM, :mod:`repro.core.dpm`, Algorithm 1),
  throttling the suspect pool first and using the battery only as a
  transition medium while V/F settings reconfigure.

:class:`AntiDopeScheme` packages both behind the standard
:class:`~repro.power.manager.PowerManagementScheme` interface, so it is
a drop-in peer of Capping/Shaving/Token — "orthogonal to prior power
management schemes and requires minute system modification".  The
pools, the queue cap and the RPM slot live in :class:`SuspectPoolScheme`,
which the online detector (:mod:`repro.detect.scheme`) shares; Anti-DOPE
adds only the offline suspect list and PDF.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .._validation import check_fraction, check_int
from ..power.manager import PowerManagementScheme, servers_power_at_level
from ..workloads.catalog import ALL_TYPES, RequestType
from .dpm import DPMPlanner
from .pdf import PDFPolicy, SuspectPoolPolicy
from .suspect_list import SuspectList

__all__ = ["SuspectPoolScheme", "AntiDopeScheme"]

#: Share of a compliant slot's headroom offered to recharge the battery.
RECHARGE_HEADROOM_FRACTION = 0.5


class SuspectPoolScheme(PowerManagementScheme):
    """The actuation half every suspect-pool defence shares.

    A forwarding :attr:`policy` isolates suspect requests on a server
    pool; every control slot, :meth:`step` (RPM) throttles that pool
    first, with the battery as the transition medium.  Subclasses
    decide what is suspect: they build the policy at bind and hand it
    to :meth:`_install`, which caps the suspect queues and builds the
    DPM planner.

    Parameters
    ----------
    suspect_pool_size:
        Servers isolated for suspect traffic (default 1, as in the
        paper's 4-node mini rack).
    use_battery_transition:
        When False, the slot runs without the battery ride-through — the
        ablation arm for the "battery as transition medium" design
        choice.
    suspect_queue_factor:
        Backlog bound of suspect-pool servers, as a multiple of their
        worker count.  This is DPM's request-regulation knob ("regulates
        the length of throttled requests"): a short suspect queue sheds
        excess high-power requests instead of letting a flood build an
        unbounded backlog that legitimate heavy requests would have to
        wait behind.  ``None`` leaves the servers' default backlog.
    profiled_types:
        Request types the classification covers (defaults to the full
        catalog).
    hysteresis:
        DPM raise-guard band.
    """

    def __init__(
        self,
        suspect_pool_size: int = 1,
        use_battery_transition: bool = True,
        suspect_queue_factor: Optional[float] = 4.0,
        profiled_types: Sequence[RequestType] = ALL_TYPES,
        hysteresis: float = 0.02,
    ) -> None:
        super().__init__(hysteresis)
        check_int("suspect_pool_size", suspect_pool_size, minimum=1)
        if suspect_queue_factor is not None and suspect_queue_factor < 1.0:
            raise ValueError(
                f"suspect_queue_factor must be >= 1, got {suspect_queue_factor}"
            )
        self.suspect_pool_size = suspect_pool_size
        self.use_battery_transition = use_battery_transition
        self.suspect_queue_factor = suspect_queue_factor
        self.profiled_types: Tuple[RequestType, ...] = tuple(profiled_types)
        self.policy: Optional[SuspectPoolPolicy] = None
        self.planner: Optional[DPMPlanner] = None

    def _install(self, policy: SuspectPoolPolicy) -> None:
        """Adopt *policy*, cap its suspect queues and build the DPM
        planner.  Called once, at bind, with the final carve."""
        self.policy = policy
        if self.suspect_queue_factor is not None:
            for server in policy.suspect_pool.members:
                cap = int(self.suspect_queue_factor * server.num_workers)
                server.queue_capacity = min(server.queue_capacity, cap)
        self.planner = DPMPlanner(self.rack.ladder.max_level, self.hysteresis)

    def forwarding_policy(self) -> SuspectPoolPolicy:
        """The suspect-pool policy for the NLB."""
        self._require_bound()
        return self.policy

    def step(self) -> None:
        """One RPM control slot (paper Section 5.2).

        Reads the perceived power once (:meth:`current_power`, so an
        attached sensor degrades the slot too), asks DPM for
        ``TL(p, q)`` and applies it to the healthy servers, suspect pool
        first.  Each pool's current level is the lowest among its
        ``alive`` members, or the ladder top when none is left; a server
        that is not healthy is left out and keeps its level.  With the
        battery transition on, the battery carries the deficit of a
        violating slot that changed a level, recharges from the
        headroom a compliant slot's plan leaves and idles otherwise.
        """
        self._require_bound()
        suspect = self.policy.suspect_pool.alive
        innocent = self.policy.innocent_pool.alive
        power_w = self.current_power()
        deficit = self.budget.deficit(power_w)
        top = self.rack.ladder.max_level

        def predict(suspect_level: int, innocent_level: int) -> float:
            """Watts of the alive servers with each pool at its level."""
            return servers_power_at_level(
                suspect, suspect_level
            ) + servers_power_at_level(innocent, innocent_level)

        plan = self.planner.plan(
            self.budget.supply_w,
            predict,
            min((s.level for s in suspect), default=top),
            min((s.level for s in innocent), default=top),
        )
        reconfigured = False
        for pool, level in (
            (suspect, plan.suspect_level),
            (innocent, plan.innocent_level),
        ):
            for server in pool:
                if server.level != level:
                    # set_level reschedules events: suspect pool first.
                    server.set_level(level)
                    reconfigured = True
        if not self.use_battery_transition or self.battery is None:
            return
        if deficit > 0 and reconfigured:
            # Transition medium: carry the deficit across the slot in
            # which the new V/F settings take effect.
            self.battery.discharge(deficit, self.slot_s)
        elif deficit <= 0:
            # Recharge from the headroom the applied plan leaves, not
            # the pre-plan reading: a raise spends part of that headroom.
            headroom_w = self.budget.headroom(
                predict(plan.suspect_level, plan.innocent_level)
            )
            self.battery.charge(
                max(0.0, headroom_w) * RECHARGE_HEADROOM_FRACTION, self.slot_s
            )
        else:
            self.battery.idle()

    @property
    def suspect_server_ids(self) -> List[int]:
        """Rack ids of the isolated suspect pool."""
        self._require_bound()
        return self.policy.suspect_server_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pool = self.suspect_server_ids if self.bound else "?"
        return f"{type(self).__name__}(suspect_pool={pool})"


class AntiDopeScheme(SuspectPoolScheme):
    """Request-aware power management (PDF + RPM).

    Parameters
    ----------
    suspect_threshold_fraction:
        Offline-profiling threshold: a URL is suspect when its
        full-load power reaches this fraction of nameplate.
    profiled_types:
        Request types covered by the offline profile (defaults to the
        full catalog).
    suspect_list:
        Pre-built suspect list; overrides offline profiling entirely.
    suspect_pool_size / use_battery_transition / suspect_queue_factor / hysteresis:
        As in :class:`SuspectPoolScheme`.
    """

    name = "anti-dope"

    def __init__(
        self,
        suspect_pool_size: int = 1,
        suspect_threshold_fraction: float = 0.70,
        use_battery_transition: bool = True,
        suspect_queue_factor: Optional[float] = 4.0,
        profiled_types: Sequence[RequestType] = ALL_TYPES,
        suspect_list: Optional[SuspectList] = None,
        hysteresis: float = 0.02,
    ) -> None:
        super().__init__(
            suspect_pool_size=suspect_pool_size,
            use_battery_transition=use_battery_transition,
            suspect_queue_factor=suspect_queue_factor,
            profiled_types=profiled_types,
            hysteresis=hysteresis,
        )
        check_fraction(
            "suspect_threshold_fraction", suspect_threshold_fraction, inclusive=False
        )
        self.suspect_threshold_fraction = suspect_threshold_fraction
        self.suspect_list = suspect_list

    def bind(self, engine, rack, budget, battery, slot_s, topology=None) -> None:
        """Attach infrastructure, build the suspect list, PDF and DPM."""
        super().bind(engine, rack, budget, battery, slot_s, topology)
        if self.suspect_list is None:
            self.suspect_list = SuspectList.from_model(
                self.profiled_types,
                rack.power_model,
                threshold_fraction=self.suspect_threshold_fraction,
            )
        self._install(
            PDFPolicy(
                self.suspect_list, rack.servers, self.suspect_pool_size, obs=engine.obs
            )
        )
