"""Experiment execution layer: parallel fan-out, caching, crash safety.

Every sweep in the package — :func:`repro.analysis.sweep.replicate`,
:class:`repro.analysis.region.DopeRegionAnalyzer` and the
``python -m repro sweep`` command — executes its cells through
:func:`run_cells`, which provides:

* process-parallel fan-out with results merged in canonical cell order
  (parallel output is byte-identical to serial output);
* an on-disk :class:`ResultCache` keyed by content hash of
  ``(experiment id, params, seed, repro version)``;
* per-cell failure capture — raise-and-retry-once, then a structured
  :class:`CellError` outcome instead of a dead sweep, including when a
  worker process dies hard.
"""

from .cache import ResultCache
from .executor import CellError, CellOutcome, CellSpec, run_cells
from .hashing import canonical_json, cell_key, default_experiment_id

__all__ = [
    "CellError",
    "CellOutcome",
    "CellSpec",
    "ResultCache",
    "canonical_json",
    "cell_key",
    "default_experiment_id",
    "run_cells",
]
