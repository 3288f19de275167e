"""OnlineDetect — the fifth Table-2 scheme (streaming Anti-DOPE).

Anti-DOPE's forwarding half classifies requests by an *offline* URL
suspect list; an adaptive attacker that shifts its mix, or a deployment
whose profile has drifted, slips straight past it.  OnlineDetect keeps
the same actuation machinery — a dedicated suspect server pool fed by
the NLB, throttled first by the RPM slot it inherits from
:class:`~repro.core.anti_dope.SuspectPoolScheme` — but replaces the
static classification with a live inference pipeline:

    arrivals + completions → :class:`StreamingFeatureExtractor`
        → :class:`OnlineAnomalyModel` (per control slot)
            → dynamic *source* suspect set
                → :class:`DynamicSuspectPolicy` (NLB forwarding)

The unit of suspicion moves from URL to **source identity**: the
detector quarantines the agents behaving like a power flood, whatever
they happen to request, which is exactly the gap the probe-and-adjust
attacker exploits against the static list.

Topology placement: in the flat model (and ``placement="dc"``) the
suspect pool is the last ``suspect_pool_size`` servers in rack order,
matching Anti-DOPE's carve-out.  Under a power tree,
``placement="row"`` instead isolates the *last server of every row*, so
each row PDU contains its own quarantine node and a quarantined flood
cannot concentrate whole-row power behind a single PDU.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .._validation import check_positive, require
from ..cluster.server import Server
from ..core.anti_dope import SuspectPoolScheme
from ..core.pdf import SuspectPoolPolicy, split_pools
from ..network.request import Request, RequestOutcome
from ..obs import Recorder
from ..sim.clock import SimulationClock
from ..workloads.catalog import ALL_TYPES, RequestType
from .features import StreamingFeatureExtractor
from .model import OnlineAnomalyModel

__all__ = ["DynamicSuspectPolicy", "OnlineDetectScheme", "PLACEMENTS"]

#: Valid suspect-pool placements (config knob ``detect_placement``).
PLACEMENTS = ("dc", "row")


class DynamicSuspectPolicy(SuspectPoolPolicy):
    """Source-keyed forwarding over a live suspect set.

    The shape of :class:`~repro.core.pdf.PDFPolicy` with two changes:
    requests are classified by ``request.source_id`` membership in a
    set the scheme replaces every control slot (not by URL), and every
    admitted arrival is tapped into the feature extractor — the policy
    sits exactly where the NLB sees post-firewall traffic, in every
    engine execution mode.
    """

    failover_counter = "detect.failover_forwarded"

    def __init__(
        self,
        extractor: StreamingFeatureExtractor,
        innocent_pool: Sequence[Server],
        suspect_pool: Sequence[Server],
        clock: SimulationClock,
        obs: Optional[Recorder] = None,
    ) -> None:
        super().__init__(innocent_pool, suspect_pool, obs=obs)
        self.extractor = extractor
        self._observe_arrival = extractor.observe_arrival
        self.suspect_sources: FrozenSet[int] = frozenset()
        self._clock = clock
        counters = self._counters
        self._arrivals_cell = counters.cell("detect.arrivals_observed")
        self._suspect_cell = counters.cell("detect.suspect_forwarded")
        self._innocent_cell = counters.cell("detect.innocent_forwarded")

    def set_suspects(self, sources: FrozenSet[int]) -> None:
        """Replace the quarantined source set (scheme-driven, per slot)."""
        self.suspect_sources = frozenset(sources)

    def select(self, request: Request, servers: Sequence[Server]) -> Server:
        """Tap the arrival, then route by live source classification.

        Only a request's first forwarding is an arrival: one shed by a
        crashed server re-enters through ``NetworkLoadBalancer.reroute``
        carrying that server's id (``Server.submit`` sets it), and is
        routed without being tapped again.  Like PDF, the NLB's
        *servers* argument is ignored in favour of the pools fixed at
        construction.
        """
        source_id = request.source_id
        if request.server_id is None:
            self._observe_arrival(source_id, request.rtype, self._clock._now)
            self._arrivals_cell[0] += 1
        if source_id in self.suspect_sources:
            pool = self._alive(self.suspect_pool, self.innocent_pool)
            self._suspect_cell[0] += 1
            return self._suspect_rr.select(request, pool)
        pool = self._alive(self.innocent_pool, self.suspect_pool)
        self._innocent_cell[0] += 1
        return self._innocent_rr.select(request, pool)


class OnlineDetectScheme(SuspectPoolScheme):
    """Streaming detection + differentiated power management.

    Parameters
    ----------
    suspect_pool_size:
        Servers isolated for quarantined traffic in ``"dc"`` placement
        (``"row"`` placement isolates one server per row instead).
    tau_s:
        Decay time constant of the feature windows.
    warmup_observations:
        Feature vectors the scorer absorbs before flagging anything.
    enter_threshold / exit_threshold:
        Hysteresis band on the anomaly score.
    placement:
        ``"dc"`` (one pool at the end of rack order) or ``"row"`` (one
        quarantine server per row of the bound power tree; falls back
        to ``"dc"`` in the flat model, which has no rows).
    use_battery_transition / suspect_queue_factor / hysteresis:
        As in :class:`~repro.core.anti_dope.SuspectPoolScheme`, whose
        pools and RPM slot this scheme inherits.
    profiled_types:
        Type universe of the entropy feature and energy attribution.
    """

    name = "online-detect"

    policy: Optional[DynamicSuspectPolicy]

    def __init__(
        self,
        suspect_pool_size: int = 1,
        tau_s: float = 10.0,
        warmup_observations: int = 100,
        enter_threshold: float = 1.5,
        exit_threshold: float = 1.0,
        placement: str = "dc",
        use_battery_transition: bool = True,
        suspect_queue_factor: Optional[float] = 4.0,
        hysteresis: float = 0.02,
        profiled_types: Sequence[RequestType] = ALL_TYPES,
    ) -> None:
        super().__init__(
            suspect_pool_size=suspect_pool_size,
            use_battery_transition=use_battery_transition,
            suspect_queue_factor=suspect_queue_factor,
            profiled_types=profiled_types,
            hysteresis=hysteresis,
        )
        check_positive("tau_s", tau_s)
        require(
            placement in PLACEMENTS,
            f"placement must be one of {PLACEMENTS}, got {placement!r}",
        )
        self.tau_s = float(tau_s)
        self.warmup_observations = warmup_observations
        self.enter_threshold = float(enter_threshold)
        self.exit_threshold = float(exit_threshold)
        self.placement = placement
        self.extractor: Optional[StreamingFeatureExtractor] = None
        self.model: Optional[OnlineAnomalyModel] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, engine, rack, budget, battery, slot_s, topology=None) -> None:
        """Attach infrastructure; build the pipeline over the pool carve.

        Row placement on a power tree isolates the last server of every
        row; otherwise the pool is the last ``suspect_pool_size``
        servers in rack order.
        """
        super().bind(engine, rack, budget, battery, slot_s, topology)
        self.extractor = StreamingFeatureExtractor(
            self.profiled_types,
            tau_s=self.tau_s,
            # The same offline-profiling energy hook the static suspect
            # list uses — here it prices completions online instead.
            energy_of=lambda rtype: rack.power_model.energy_per_request(
                rtype, 1.0
            ),
        )
        self.model = OnlineAnomalyModel(
            warmup_observations=self.warmup_observations,
            enter_threshold=self.enter_threshold,
            exit_threshold=self.exit_threshold,
        )
        if self.placement == "row" and topology is not None:
            innocent, suspect = self._row_carve(topology)
        else:
            innocent, suspect = split_pools(rack.servers, self.suspect_pool_size)
        self._install(
            DynamicSuspectPolicy(
                self.extractor, innocent, suspect, engine.clock, obs=engine.obs
            )
        )
        for server in rack.servers:
            server.completion_sink = self._tee_completion(
                server.completion_sink
            )

    def _row_carve(self, topology) -> Tuple[List[Server], List[Server]]:
        """(innocent, suspect) with the last server of every row isolated."""
        last = {n.stop - 1 for n in topology.nodes.values() if n.kind == "row"}
        require(len(last) > 0, "row placement needs a tree with row nodes")
        servers = self.rack.servers
        innocent = [s for i, s in enumerate(servers) if i not in last]
        require(
            len(innocent) > 0,
            "row placement must leave at least one innocent server",
        )
        return innocent, [servers[i] for i in sorted(last)]

    def _tee_completion(self, original):
        """Wrap a server's completion sink with the attribution tap.

        Completion sinks fire per request in both the scalar and the
        batched engine; the fluid path only bulk-absorbs firewall drops,
        which never reach a server — so the tap is engine-mode safe.
        """

        completions = self.engine.obs.counters.cell("detect.completions_observed")
        observe = self.extractor.observe_completion
        completed = RequestOutcome.COMPLETED

        def tee(request, outcome, now):
            if outcome is completed:
                observe(request.source_id, request.rtype, now)
                completions[0] += 1
            if original is not None:
                original(request, outcome, now)

        return tee

    # ------------------------------------------------------------------
    # Control slot
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Calibrate, score every live source, re-carve the suspect set,
        then run the inherited RPM slot against the updated set."""
        self._require_bound()
        now = self.engine.now
        counters = self.engine.obs.counters
        self._calibrate(counters)
        suspects = set()
        features = self.extractor.features
        update = self.model.update
        for source_id in self.extractor.sources():
            if update(source_id, features(source_id, now)):
                suspects.add(source_id)
        previous = self.policy.suspect_sources
        entered = len(suspects - previous)
        exited = len(previous - suspects)
        if entered:
            counters.inc("detect.quarantine_enters", entered)
        if exited:
            counters.inc("detect.quarantine_exits", exited)
        if not self.model.warmed_up:
            counters.inc("detect.warmup_slots")
        self.policy.set_suspects(frozenset(suspects))
        super().step()

    def _calibrate(self, counters) -> None:
        """Derive the power-attribution gain from the sensing path.

        ``current_power()`` walks the bounded-staleness ladder (exact →
        sensed → last-known-good → worst-case nameplate), so the gain
        inherits exactly the degradation the chaos layer injects; the
        extractor clamps it, keeping scores finite under a blind meter.
        """
        modelled = self.rack.total_power()
        if modelled <= 0.0:
            return
        gain = self.current_power() / modelled
        self.extractor.set_calibration(gain)
        if self.extractor.gain_clamped:
            counters.inc("detect.calibration_clamped")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def suspect_sources(self) -> FrozenSet[int]:
        """Source ids currently quarantined by the detector."""
        self._require_bound()
        return self.policy.suspect_sources

    def report(self) -> Dict[str, object]:
        """JSON-ready detector state (see ``analysis.export``)."""
        self._require_bound()
        return {
            "scheme": self.name,
            "placement": self.placement,
            "suspect_servers": self.suspect_server_ids,
            "suspect_sources": sorted(self.policy.suspect_sources),
            "source_scores": {
                str(sid): score
                for sid, score in sorted(self.model.last_scores.items())
            },
            "observations": self.model.observations,
            "warmed_up": self.model.warmed_up,
            "calibration_gain": self.extractor.calibration_gain,
            "model": self.model.fingerprint(),
        }
