"""Process-parallel, deterministic, cached, fail-fast execution of cells.

:func:`run_cells` is the execution layer every sweep in the package
funnels through.  It takes one picklable experiment callable and one
keyword-argument mapping per cell, and returns the experiment's values
**in cell order** — regardless of worker count, completion order or
cache state — so parallel output is byte-identical to serial output
once rendered.

* ``workers=1`` (the default) runs serially in-process, with no
  pickling and no pool.
* ``workers>1`` submits every uncached cell to one
  :class:`ProcessPoolExecutor`.  Experiments must then be picklable
  (module-level callables, bound methods of picklable objects, or
  picklable callable instances).
* The first cell that fails, in cell order, raises :class:`CellError`
  with the experiment's exception chained as its ``__cause__``; no
  later cell starts.  A worker that dies hard (``os._exit``, a signal,
  an OOM kill) breaks the pool, which raises :class:`CellError` too.
* With a :class:`~repro.runner.cache.ResultCache`, cells whose key —
  ``(experiment id, params, repro version)`` — is already stored are
  served from disk without executing anything.  Each cell's value is
  stored as soon as it finishes, so a rerun after a failure reuses
  every cell that finished before it.
"""

from __future__ import annotations

import gc
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Callable, Dict, Generator, List, Mapping, Optional, Sequence

from .._validation import check_int
from ..obs import Recorder, WallTimers
from .cache import ResultCache
from .hashing import cell_key, default_experiment_id

__all__ = [
    "CellError",
    "run_cells",
]

#: experiment(**params) -> JSON-serialisable mapping of results.
Experiment = Callable[..., Mapping[str, object]]
Cells = Sequence[Mapping[str, object]]
Values = Generator[Dict[str, object], None, None]


class CellError(RuntimeError):
    """The first cell of a run that failed, in cell order.

    ``__cause__`` is the experiment's exception, or the
    :class:`~concurrent.futures.BrokenExecutor` of a pool whose worker
    died hard.
    """

    def __init__(
        self, index: int, params: Mapping[str, object], cause: BaseException
    ) -> None:
        if isinstance(cause, BrokenExecutor):
            reason = (
                "the worker pool broke: a worker died hard (os._exit, a "
                "signal or OOM) before this cell finished"
            )
        else:
            reason = f"{type(cause).__name__}: {cause}"
        super().__init__(
            f"cell {index} (params={dict(params)!r}) failed: {reason}"
        )
        self.index = index
        self.params = dict(params)


def _invoke(
    experiment: Experiment, params: Mapping[str, object]
) -> Dict[str, object]:
    """Run one cell, then free the young garbage it left behind.

    A finished cell leaves its simulation behind as garbage held
    together by reference cycles (engine ↔ scheduled callbacks).  Only
    generations 0 and 1 are collected here: a cell whose simulation is
    still young when it returns (the common case for the short cells of
    a region sweep, whose request path allocates few long-lived
    objects) is freed before the next cell starts.  A cell whose
    simulation a collection during its run promoted to the oldest
    generation — any long cell — does not benefit; its garbage waits
    for a full collection, which a sweep may never trigger.
    """
    value = dict(experiment(**params))
    gc.collect(1)
    return value


def run_cells(
    experiment: Experiment,
    cells: Cells,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    experiment_id: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> List[Dict[str, object]]:
    """Execute every cell; return the experiment's values in cell order.

    Parameters
    ----------
    experiment:
        Callable invoked as ``experiment(**cell)``; must return a
        JSON-serialisable mapping.  Must be picklable when ``workers>1``.
    cells:
        One keyword-argument mapping per cell; output order follows
        this sequence exactly.
    workers:
        Process count; ``1`` runs serially in-process (default).
    cache:
        Optional on-disk result cache; hits skip execution entirely.
    experiment_id:
        Stable name keying cache entries.  Defaults to the experiment's
        ``module.qualname``; required explicitly for lambdas/closures.
    recorder:
        Optional observation context.  Counters (cells, cells executed,
        cache hits and misses) are deterministic — identical for any
        worker count — while wall-clock lands in the segregated timer
        table.

    Raises
    ------
    CellError
        For the first cell, in cell order, whose experiment raised or
        whose pool broke; no later cell starts.
    """
    check_int("workers", workers, minimum=1)
    if cache is not None and experiment_id is None:
        experiment_id = default_experiment_id(experiment)
    if recorder is None:
        recorder = Recorder()
    counters = recorder.counters
    counters.inc("runner.cells_total", len(cells))

    values: List[Dict[str, object]] = [{}] * len(cells)
    keys: List[str] = []
    pending: List[int] = []
    with recorder.timers.phase("runner.run_cells"):
        for index, params in enumerate(cells):
            if cache is not None:
                assert experiment_id is not None
                keys.append(cell_key(experiment_id, params))
                hit = cache.get(keys[index])
                if hit is not None:
                    counters.inc("runner.cache_hits")
                    values[index] = hit
                    continue
                counters.inc("runner.cache_misses")
            pending.append(index)

        todo = [cells[index] for index in pending]
        if workers == 1:
            results = _run_serial(experiment, todo, recorder.timers)
        else:
            results = _run_pool(experiment, todo, workers, recorder.timers)
        try:
            for index in pending:
                try:
                    value = next(results)
                except Exception as exc:
                    raise CellError(index, cells[index], exc) from exc
                values[index] = value
                counters.inc("runner.cells_executed")
                if cache is not None:
                    cache.put(keys[index], value)
        finally:
            results.close()

    return values


def _run_serial(experiment: Experiment, cells: Cells, timers: WallTimers) -> Values:
    """In-process loop: the next cell starts only when asked for."""
    for params in cells:
        with timers.phase("runner.cell"):
            value = _invoke(experiment, params)
        yield value


def _run_pool(
    experiment: Experiment, cells: Cells, workers: int, timers: WallTimers
) -> Values:
    """Every cell submitted at once; values yielded in cell order.

    A failed cell, or closing the generator early, cancels every cell
    that has not started.  Pool mode cannot attribute wall-clock to
    single cells (they overlap across workers), so the whole batch is
    timed as one phase instead.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        with timers.phase("runner.pool_batch"):
            futures = [pool.submit(_invoke, experiment, cell) for cell in cells]
            for future in futures:
                yield future.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
