"""DOPE attack-region characterisation (paper Fig. 11).

Fig. 11 defines DOPE's operating region on the (request type × traffic
rate) plane: the set of attack configurations that **violate the power
budget** while staying **undetected by the perimeter defence**.  This
module sweeps that plane by running one short simulation per cell and
classifying the outcome into four zones:

* ``benign``      — within budget, undetected (harmless traffic);
* ``dope``        — budget violated, undetected (the threat region);
* ``detected``    — budget violated but the firewall caught it
  (a conventional DoS: damage is bounded by the ban);
* ``filtered``    — detected without even violating the budget
  (high-volume, low-power floods).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .._validation import check_int, check_positive, require
from ..detect import make_scheme, validate_scheme_names
from ..obs import Recorder
from ..power.budget import BudgetLevel
from ..runner import ResultCache, canonical_json, run_cells
from ..sim.config import SimulationConfig
from ..sim.engine import engine_from_env, resolve_engine_selection
from ..sim.simulation import DataCenterSimulation
from ..workloads.catalog import RequestType

__all__ = [
    "RegionCell",
    "RegionResult",
    "DopeRegionAnalyzer",
]


@dataclass(frozen=True)
class RegionCell:
    """One sweep point."""

    type_name: str
    rate_rps: float
    num_agents: int
    peak_power_w: float
    budget_w: float
    violated: bool
    detected: bool
    #: True when the probe ran under a detection-capable scheme and the
    #: scheme quarantined at least one flood source.  Folded into
    #: ``detected`` already; kept separately so the fig11 comparison can
    #: attribute detections to the firewall vs the online detector.
    detector_flagged: bool = False

    @property
    def zone(self) -> str:
        """Zone classification (see module docstring)."""
        if self.violated and not self.detected:
            return "dope"
        if self.violated and self.detected:
            return "detected"
        if self.detected:
            return "filtered"
        return "benign"


@dataclass
class RegionResult:
    """The swept grid with query helpers."""

    cells: List[RegionCell]

    def zone_of(self, type_name: str, rate_rps: float) -> str:
        """Zone of the cell at (type, rate)."""
        for cell in self.cells:
            if cell.type_name == type_name and math.isclose(
                cell.rate_rps, rate_rps, rel_tol=1e-9, abs_tol=0.0
            ):
                return cell.zone
        raise KeyError(f"no cell for ({type_name!r}, {rate_rps})")

    def dope_cells(self) -> List[RegionCell]:
        """All cells inside the DOPE region."""
        return [c for c in self.cells if c.zone == "dope"]

    def dope_fraction(self) -> float:
        """Fraction of swept cells inside the DOPE region.

        The fig11 headline metric: a detection scheme *shrinks* this
        number relative to the unmanaged (or static-list) sweep of the
        same grid, because cells it flags migrate from ``dope`` to
        ``detected``.
        """
        if not self.cells:
            return 0.0
        return len(self.dope_cells()) / len(self.cells)

    def dope_onset_rate(self, type_name: str) -> Optional[float]:
        """Lowest swept rate at which *type_name* enters the DOPE region."""
        rates = sorted(
            c.rate_rps
            for c in self.cells
            if c.type_name == type_name and c.zone == "dope"
        )
        return rates[0] if rates else None

    def as_rows(self) -> List[Tuple]:
        """Flat rows for tabular reporting."""
        return [
            (
                c.type_name,
                c.rate_rps,
                c.num_agents,
                c.peak_power_w,
                c.budget_w,
                c.zone,
            )
            for c in self.cells
        ]


class DopeRegionAnalyzer:
    """Sweep the (type × rate) plane with short unmanaged simulations.

    Parameters
    ----------
    config:
        Infrastructure to probe (budget level matters most).  The sweep
        runs *without* a power-management scheme: the question Fig. 11
        answers is where the raw vulnerability lies, not how schemes
        respond.
    window_s:
        Simulated seconds per cell (short — peak detection only).
    num_agents:
        Attacker agents the rate is spread over; more agents push the
        detection frontier to higher aggregate rates.
    background_rate_rps:
        Legitimate load present during the probe.
    scheme:
        Optional scheme name (see :data:`repro.detect.SCHEME_NAMES`) to
        run each probe under.  ``None`` keeps the classic unmanaged
        sweep.  With a detection-capable scheme (``online-detect``) a
        cell also counts as *detected* when the scheme quarantines any
        flood source — the detectable-region comparison of fig11.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        window_s: float = 60.0,
        num_agents: int = 20,
        background_rate_rps: float = 20.0,
        scheme: Optional[str] = None,
    ) -> None:
        check_positive("window_s", window_s)
        check_int("num_agents", num_agents, minimum=1)
        check_positive("background_rate_rps", background_rate_rps)
        if scheme is not None:
            validate_scheme_names([scheme])
        self.config = config or SimulationConfig(budget_level=BudgetLevel.MEDIUM)
        self.window_s = float(window_s)
        self.num_agents = num_agents
        self.background_rate_rps = float(background_rate_rps)
        self.scheme = scheme

    def probe(self, rtype: RequestType, rate_rps: float) -> RegionCell:
        """Run one cell and classify it.

        The probe honours ``REPRO_BENCH_ENGINE`` but defaults to the
        *batched* engine rather than fluid: sweep cells are model
        measurements, and batched is byte-identical to the scalar
        reference while fluid is only statistically faithful.
        """
        check_positive("rate_rps", rate_rps)
        engine_mode, fluid = resolve_engine_selection(
            engine_from_env(default="batched")
        )
        scheme = (
            make_scheme(self.scheme, self.config)
            if self.scheme is not None
            else None
        )
        sim = DataCenterSimulation(
            self.config, scheme=scheme, engine_mode=engine_mode, fluid=fluid
        )
        sim.add_normal_traffic(rate_rps=self.background_rate_rps, num_users=50)
        flood = sim.add_flood(
            mix=rtype,
            rate_rps=rate_rps,
            num_agents=self.num_agents,
            label=f"probe-{rtype.name}",
        )
        sim.run(self.window_s)
        peak = sim.meter.peak_power()
        flagged = False
        if scheme is not None and hasattr(scheme, "suspect_sources"):
            pool = flood.source_pool
            flagged = any(
                pool.contains(source) for source in scheme.suspect_sources
            )
        detected = sim.firewall.stats.bans > 0 or flagged
        return RegionCell(
            type_name=rtype.name,
            rate_rps=rate_rps,
            num_agents=self.num_agents,
            peak_power_w=peak,
            budget_w=sim.budget.supply_w,
            violated=peak > sim.budget.supply_w,
            detected=detected,
            detector_flagged=flagged,
        )

    def sweep(
        self,
        types: Sequence[RequestType],
        rates_rps: Sequence[float],
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        recorder: Optional[Recorder] = None,
    ) -> RegionResult:
        """Probe the full grid (``len(types) × len(rates)`` cells).

        ``workers>1`` runs probe cells in parallel processes; cell
        order — and therefore every exported artifact — is identical to
        the serial sweep.  ``cache`` reuses stored cells keyed on the
        analyzer's full configuration, the cell coordinates and the
        repro version.  ``recorder`` collects runner counters (cells,
        cache hits/misses) and wall timings for this sweep.
        """
        require(len(types) > 0, "need at least one type")
        require(len(rates_rps) > 0, "need at least one rate")
        probe = _RegionProbe(self, types)
        values = run_cells(
            probe,
            [
                {"type_name": rtype.name, "rate_rps": float(rate)}
                for rtype in types
                for rate in rates_rps
            ],
            workers=workers,
            cache=cache,
            experiment_id=self.experiment_id(),
            recorder=recorder,
        )
        return RegionResult(
            [RegionCell(**value) for value in values]  # type: ignore[arg-type]
        )

    def experiment_id(self) -> str:
        """Cache identity: the probe routine plus every analyzer knob.

        The ``scheme`` key only appears when a scheme is set — classic
        unmanaged sweeps keep their pre-detector cache identity.
        """
        knobs = {
            "config": asdict(self.config),
            "window_s": self.window_s,
            "num_agents": self.num_agents,
            "background_rate_rps": self.background_rate_rps,
        }
        if self.scheme is not None:
            knobs["scheme"] = self.scheme
        fingerprint = canonical_json(knobs)
        return f"repro.analysis.region.DopeRegionAnalyzer.probe/{fingerprint}"


class _RegionProbe:
    """Picklable cell experiment: (type_name, rate) → RegionCell fields."""

    def __init__(
        self, analyzer: DopeRegionAnalyzer, types: Sequence[RequestType]
    ) -> None:
        self.analyzer = analyzer
        self.by_name: Dict[str, RequestType] = {t.name: t for t in types}

    def __call__(self, type_name: str, rate_rps: float) -> Mapping[str, object]:
        cell = self.analyzer.probe(self.by_name[type_name], rate_rps)
        return asdict(cell)
