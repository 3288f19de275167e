"""Multi-seed replication.

The benches pin qualitative shapes from single seeded runs; robust
claims need replication.  :func:`replicate` runs an experiment across
seeds and summarises any scalar metrics as a :class:`MetricSummary`:
mean, standard deviation and a normal-theory confidence interval.

It executes its cells through :func:`repro.runner.run_cells`, so
``workers=N`` fans them out across processes (results merged in
canonical cell order — output is byte-identical to serial) and
``cache=`` makes repeat runs near-instant.  The defaults (``workers=1``,
no cache) preserve the original strictly-serial in-process behaviour,
lambdas and all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_fraction, require
from ..obs import Recorder
from ..runner import CellSpec, ResultCache, default_experiment_id, run_cells

__all__ = [
    "MetricSummary",
    "replicate",
]

#: experiment(seed) -> {metric_name: value}
Experiment = Callable[[int], Mapping[str, float]]


@dataclass(frozen=True)
class MetricSummary:
    """Replicated statistics of one scalar metric."""

    name: str
    n: int
    mean: float
    std: float
    ci_half_width: float

    @property
    def ci_low(self) -> float:
        """Lower edge of the confidence interval."""
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        """Upper edge of the confidence interval."""
        return self.mean + self.ci_half_width

    def __str__(self) -> str:
        return f"{self.name}={self.mean:.4g}±{self.ci_half_width:.2g} (n={self.n})"


# Two-sided z-quantiles for the usual confidence levels.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z_for(confidence: float) -> float:
    check_fraction("confidence", confidence, inclusive=False)
    z = _Z.get(round(confidence, 2))
    if z is None:
        raise ValueError(f"confidence must be one of {sorted(_Z)}")
    return z


class _SeedCall:
    """Adapter: ``fn(seed)`` positional → runner's keyword convention.

    Picklable whenever the wrapped experiment is, so it survives the
    trip to a worker process; in serial mode nothing is ever pickled
    and lambda experiments keep working exactly as before.
    """

    def __init__(self, fn: Experiment) -> None:
        self.fn = fn

    def __call__(self, seed: int) -> Mapping[str, float]:
        return self.fn(seed)


def _summarise(
    per_metric: Mapping[str, List[float]], n: int, z: float
) -> Dict[str, MetricSummary]:
    summaries = {}
    for k in per_metric:
        arr = np.asarray(per_metric[k])
        std = float(arr.std(ddof=1)) if n > 1 else 0.0
        summaries[k] = MetricSummary(
            name=k,
            n=n,
            mean=float(arr.mean()),
            std=std,
            ci_half_width=z * std / math.sqrt(n) if n > 1 else 0.0,
        )
    return summaries


def _collect_metrics(
    cell_values: Sequence[Tuple[int, Mapping[str, object]]],
) -> Dict[str, List[float]]:
    """Seed-ordered metric columns, enforcing consistent keys per cell."""
    results: Dict[str, List[float]] = {}
    keys: Tuple[str, ...] = ()
    for seed, out in cell_values:
        if not keys:
            keys = tuple(sorted(out))
            for k in keys:
                results[k] = []
        elif tuple(sorted(out)) != keys:
            raise ValueError(
                f"seed {seed} returned metrics {sorted(out)}; expected {list(keys)}"
            )
        for k in keys:
            results[k].append(float(out[k]))  # type: ignore[arg-type]
    return results


def replicate(
    experiment: Experiment,
    seeds: Sequence[int],
    confidence: float = 0.95,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    experiment_id: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> Dict[str, MetricSummary]:
    """Run *experiment* once per seed and summarise every metric.

    The experiment returns a dict of scalar metrics; all runs must
    return the same metric keys.  ``workers>1`` fans seeds out across
    processes (the experiment must then be picklable); ``cache`` reuses
    stored results keyed on ``(experiment_id, seed, repro version)``;
    ``recorder`` collects runner counters and wall timings.
    """
    require(len(seeds) > 0, "need at least one seed")
    z = _z_for(confidence)
    if cache is not None and experiment_id is None:
        experiment_id = default_experiment_id(experiment)
    specs = [
        CellSpec(index=i, params={"seed": int(seed)}, seed=int(seed))
        for i, seed in enumerate(seeds)
    ]
    outcomes = run_cells(
        _SeedCall(experiment),
        specs,
        workers=workers,
        cache=cache,
        experiment_id=experiment_id,
        recorder=recorder,
    )
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    values = [
        (spec.seed, outcome.value)
        for spec, outcome in zip(specs, outcomes)
        if outcome.value is not None
    ]
    return _summarise(_collect_metrics(values), len(seeds), z)
