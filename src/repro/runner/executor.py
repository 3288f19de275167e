"""Process-parallel, deterministic, cached execution of experiment cells.

:func:`run_cells` is the execution layer every sweep in the package
funnels through.  It takes one picklable experiment callable and a list
of :class:`CellSpec` (parameters + seed), and returns one
:class:`CellOutcome` per spec **in spec order** — regardless of worker
count, completion order, cache state or failures — so parallel output
is byte-identical to serial output once rendered.

Guarantees:

* ``workers=1`` (the default) runs strictly serially in-process, with
  zero pickling and zero pool overhead — the exact legacy execution
  path of :mod:`repro.analysis.sweep`.
* ``workers>1`` fans cells out over a :class:`ProcessPoolExecutor`.
  Experiments must then be picklable (module-level callables, bound
  methods of picklable objects, or picklable callable instances).
* A cell whose experiment **raises** is retried (``retries`` times,
  default once); if it still fails, its outcome carries a structured
  :class:`CellError` instead of killing the sweep.
* A cell whose worker **dies hard** (``os._exit``, segfault, OOM kill)
  breaks the pool; the runner rebuilds the pool and re-runs the
  not-yet-finished cells one at a time so the crash can be attributed
  to the single cell that caused it.  That cell gets the same
  retry-then-:class:`CellError` treatment; innocent cells are re-run
  without being charged an attempt.
* With a :class:`~repro.runner.cache.ResultCache`, cells whose key —
  ``(experiment id, params, seed, repro version)`` — is already stored
  are served from disk without executing anything; only successful
  cells are written back.
"""

from __future__ import annotations

import gc
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .._validation import check_int
from ..obs import Recorder
from .cache import ResultCache
from .hashing import cell_key, default_experiment_id

__all__ = [
    "CellSpec",
    "CellOutcome",
    "CellError",
    "run_cells",
]

#: experiment(**params) -> JSON-serialisable mapping of results.
Experiment = Callable[..., Mapping[str, object]]


@dataclass(frozen=True)
class CellSpec:
    """One unit of work: a parameter binding plus its seed.

    ``params`` is passed to the experiment as keyword arguments and —
    together with ``seed`` — forms the cell's cache identity, so it must
    contain only JSON-representable values when caching is enabled.
    ``seed`` is metadata for keying and error reporting; by convention
    the experiment receives it inside ``params`` (the sweep layers put
    it there).
    """

    index: int
    params: Mapping[str, object] = field(default_factory=dict)
    seed: Optional[int] = None


class CellError(RuntimeError):
    """Structured record of one cell's permanent failure.

    Carried inside :class:`CellOutcome` rather than raised, so a single
    bad cell cannot abort a thousand-cell sweep; callers that prefer
    fail-fast semantics raise it themselves.
    """

    def __init__(
        self,
        index: int,
        params: Mapping[str, object],
        seed: Optional[int],
        kind: str,
        exc_type: str,
        message: str,
        traceback_text: str = "",
        attempts: int = 1,
    ) -> None:
        super().__init__(
            f"cell {index} (params={dict(params)!r}, seed={seed}) failed "
            f"after {attempts} attempt(s): {exc_type}: {message}"
        )
        self.index = index
        self.params = dict(params)
        self.seed = seed
        #: ``"exception"`` (experiment raised) or ``"crash"`` (worker died).
        self.kind = kind
        self.exc_type = exc_type
        self.message = message
        self.traceback_text = traceback_text
        self.attempts = attempts


@dataclass(frozen=True)
class CellOutcome:
    """Result of one cell: either a value or a :class:`CellError`."""

    spec: CellSpec
    value: Optional[Dict[str, object]] = None
    error: Optional[CellError] = None
    attempts: int = 1
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell produced a value."""
        return self.error is None


def _invoke(fn: Experiment, params: Mapping[str, object]) -> Tuple[str, ...]:
    """Child-side shim: run the experiment, never raise across the pipe.

    Ordinary exceptions come back as structured payloads so the parent
    can attribute, retry and report them; only a hard process death
    escapes (and surfaces as a broken pool).

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
    try:
        value = dict(fn(**params))
    except Exception as exc:  # noqa: BLE001 - the capture point by design
        return ("error", type(exc).__name__, str(exc), traceback.format_exc())
    gc.collect(1)
    return ("ok", value)  # type: ignore[return-value]


def run_cells(
    experiment: Experiment,
    specs: Sequence[CellSpec],
    workers: int = 1,
    retries: int = 1,
    cache: Optional[ResultCache] = None,
    experiment_id: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> List[CellOutcome]:
    """Execute every spec and return outcomes in spec order.

    Parameters
    ----------
    experiment:
        Callable invoked as ``experiment(**spec.params)``; must return a
        JSON-serialisable mapping.  Must be picklable when ``workers>1``.
    specs:
        Cells to run.  Output order follows this sequence exactly.
    workers:
        Process count; ``1`` runs serially in-process (default).
    retries:
        Extra attempts after a cell's first failure before it is
        recorded as a :class:`CellError`.
    cache:
        Optional on-disk result cache; hits skip execution entirely.
    experiment_id:
        Stable name keying cache entries.  Defaults to the experiment's
        ``module.qualname``; required explicitly for lambdas/closures.
    recorder:
        Optional observation context.  Counters (cells, cache hits and
        misses, retries, errors) are deterministic — identical for any
        worker count — while per-cell wall-clock lands in the segregated
        timer table.
    """
    check_int("workers", workers, minimum=1)
    check_int("retries", retries, minimum=0)
    if cache is not None and experiment_id is None:
        experiment_id = default_experiment_id(experiment)
    if recorder is None:
        recorder = Recorder()
    counters = recorder.counters
    counters.inc("runner.cells_total", len(specs))

    outcomes: Dict[int, CellOutcome] = {}
    keys: Dict[int, str] = {}
    pending: List[CellSpec] = []
    with recorder.timers.phase("runner.run_cells"):
        for spec in specs:
            if cache is not None:
                assert experiment_id is not None
                key = cell_key(experiment_id, spec.params, spec.seed)
                keys[spec.index] = key
                hit = cache.get(key)
                if hit is not None:
                    counters.inc("runner.cache_hits")
                    outcomes[spec.index] = CellOutcome(
                        spec=spec, value=hit, attempts=0, from_cache=True
                    )
                    continue
                counters.inc("runner.cache_misses")
            pending.append(spec)

        if pending:
            if workers == 1:
                executed = _run_serial(experiment, pending, retries, recorder)
            else:
                executed = _run_pool(experiment, pending, workers, retries, recorder)
            for outcome in executed:
                outcomes[outcome.spec.index] = outcome
                counters.inc("runner.cells_executed")
                if outcome.attempts > 1:
                    counters.inc("runner.cell_retries", outcome.attempts - 1)
                if outcome.error is not None:
                    counters.inc("runner.cell_errors")
                if cache is not None and outcome.ok:
                    assert outcome.value is not None
                    cache.put(keys[outcome.spec.index], outcome.value)

    return [outcomes[spec.index] for spec in specs]


# ----------------------------------------------------------------------
# Serial path (byte-compatible legacy execution)
# ----------------------------------------------------------------------


def _run_serial(
    experiment: Experiment,
    specs: Sequence[CellSpec],
    retries: int,
    recorder: Recorder,
) -> List[CellOutcome]:
    results = []
    for spec in specs:
        attempts = 0
        while True:
            attempts += 1
            with recorder.timers.phase("runner.cell"):
                payload = _invoke(experiment, spec.params)
            if payload[0] == "ok":
                results.append(
                    CellOutcome(spec=spec, value=payload[1], attempts=attempts)
                )
                break
            if attempts > retries:
                results.append(
                    CellOutcome(
                        spec=spec,
                        error=_error_from_payload(spec, payload, attempts),
                        attempts=attempts,
                    )
                )
                break
    return results


def _error_from_payload(
    spec: CellSpec, payload: Tuple[str, ...], attempts: int
) -> CellError:
    _, exc_type, message, traceback_text = payload
    return CellError(
        index=spec.index,
        params=spec.params,
        seed=spec.seed,
        kind="exception",
        exc_type=exc_type,
        message=message,
        traceback_text=traceback_text,
        attempts=attempts,
    )


# ----------------------------------------------------------------------
# Pool path
# ----------------------------------------------------------------------


def _run_pool(
    experiment: Experiment,
    specs: Sequence[CellSpec],
    workers: int,
    retries: int,
    recorder: Recorder,
) -> List[CellOutcome]:
    results: Dict[int, CellOutcome] = {}
    queue: List[CellSpec] = list(specs)
    attempts: Dict[int, int] = {spec.index: 0 for spec in specs}
    # After a pool break the crashing cell is unknown (every in-flight
    # future dies with BrokenExecutor), so the runner switches to
    # one-cell-at-a-time submissions where a repeat crash is
    # attributable to exactly one spec.
    isolate = False

    while queue:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            batch = queue[:1] if isolate else list(queue)
            crashed: List[CellSpec] = []
            # Pool mode cannot attribute wall-clock to single cells
            # (they overlap across workers), so each submission round is
            # timed as one batch instead.
            with recorder.timers.phase("runner.pool_batch"):
                futures = [
                    (spec, pool.submit(_invoke, experiment, spec.params))
                    for spec in batch
                ]
                for spec, future in futures:
                    try:
                        payload = future.result()
                    except BrokenExecutor:
                        crashed.append(spec)
                        continue
                    attempts[spec.index] += 1
                    if payload[0] == "ok":
                        results[spec.index] = CellOutcome(
                            spec=spec,
                            value=payload[1],
                            attempts=attempts[spec.index],
                        )
                    elif attempts[spec.index] > retries:
                        results[spec.index] = CellOutcome(
                            spec=spec,
                            error=_error_from_payload(
                                spec, payload, attempts[spec.index]
                            ),
                            attempts=attempts[spec.index],
                        )
                    # else: stays queued for the next round's retry.

            if crashed:
                if isolate:
                    # Single submission: the crash is this cell's.
                    spec = crashed[0]
                    attempts[spec.index] += 1
                    if attempts[spec.index] > retries:
                        results[spec.index] = CellOutcome(
                            spec=spec,
                            error=CellError(
                                index=spec.index,
                                params=spec.params,
                                seed=spec.seed,
                                kind="crash",
                                exc_type="WorkerCrash",
                                message=(
                                    "worker process died (hard exit, signal "
                                    "or OOM) while running this cell"
                                ),
                                attempts=attempts[spec.index],
                            ),
                            attempts=attempts[spec.index],
                        )
                else:
                    isolate = True

            # Everything without a recorded outcome — retries, crash
            # survivors, cells never submitted in isolate mode — stays
            # queued in original order; output order is fixed by
            # run_cells regardless.
            queue = [spec for spec in queue if spec.index not in results]
        finally:
            pool.shutdown(wait=True)

    return [results[spec.index] for spec in specs]
