"""Experiment execution layer: parallel fan-out, caching, fail-fast.

Every sweep in the package — :func:`repro.analysis.sweep.replicate`,
:class:`repro.analysis.region.DopeRegionAnalyzer`,
:func:`repro.faults.run_chaos` and the ``python -m repro sweep``
command — executes its cells through :func:`run_cells`, which provides:

* process-parallel fan-out with values returned in cell order
  (parallel output is byte-identical to serial output);
* an on-disk :class:`ResultCache` keyed by content hash of
  ``(experiment id, params, repro version)``;
* fail-fast errors — the first failing cell, in cell order, raises a
  :class:`CellError` naming its index and params, with the
  experiment's exception (or the broken pool of a worker that died
  hard) as its cause.
"""

from .cache import ResultCache
from .executor import CellError, run_cells
from .hashing import canonical_json, cell_key, default_experiment_id

__all__ = [
    "CellError",
    "ResultCache",
    "canonical_json",
    "cell_key",
    "default_experiment_id",
    "run_cells",
]
