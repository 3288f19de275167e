"""Parallel-runner acceptance: the Fig 11 grid sweeps faster on 4 workers.

Serial and parallel sweeps producing identical output is asserted in
``tests/test_determinism.py``; layer-by-layer timing of real runs is
perfbench's job.  This file keeps the one performance claim the runner
makes: four worker processes sweep the 20-cell region grid at least
twice as fast as one.
"""

import os
import time

import pytest

from _support import REGION_RATES, REGION_TYPES, fig11_analyzer


def _timed_region_sweep(workers):
    """Seconds one full Fig 11 region sweep takes on *workers*."""
    analyzer = fig11_analyzer(seed=5)
    started = time.perf_counter()
    analyzer.sweep(REGION_TYPES, REGION_RATES, workers=workers)
    return time.perf_counter() - started


def test_perf_parallel_region_sweep_speedup():
    """Acceptance: 4 workers ≥ 2× faster than serial on the Fig 11 grid.

    The bound is hardware-conditional: process parallelism cannot beat
    serial execution without cores to run on, so the assertion needs at
    least 4 usable CPUs (CI containers pinned to fewer cores skip it).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    if cpus < 4:
        pytest.skip(f"needs >=4 usable CPUs for a 2x bound, have {cpus}")
    serial_s = _timed_region_sweep(1)
    parallel_s = _timed_region_sweep(4)
    speedup = serial_s / parallel_s
    print(
        f"\nFig 11 region grid ({len(REGION_TYPES) * len(REGION_RATES)} cells): "
        f"serial {serial_s:.2f}s, 4 workers {parallel_s:.2f}s, {speedup:.2f}x"
    )
    assert speedup >= 2.0
