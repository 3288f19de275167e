"""Observability layer: counters, wall timers and run manifests.

The simulator's headline claims rest on measured trajectories, so the
measurement spine itself is a first-class subsystem.  ``repro.obs``
provides three small pieces, kept strictly on the right side of the
determinism boundary:

* :class:`Counters` — named monotonic counters incremented on the hot
  path (events dispatched, DVFS transitions, PDF decisions, budget
  violations, cache hits…).  Counters are **deterministic output**:
  two same-seed runs must produce identical counter tables, and the
  parallel runner must merge to the same table as a serial run.
* :class:`WallTimers` — segregated wall-clock phase timers (the only
  place in ``src/repro`` allowed to read a wall clock).  Timings are
  **excluded** from every deterministic artifact and hash; they exist
  so a run can report where its wall time went.
* :class:`Recorder` — one counters + timers bundle threaded through a
  simulation (every :class:`~repro.sim.engine.EventEngine` owns one).
* :class:`RunManifest` — the machine-readable record of one run:
  config hash, seed, package version and the counter table, with the
  wall timings carried alongside but outside the deterministic hash.

See DESIGN.md §9 for what is counted, what is timed, and why the
boundary sits where it does.
"""

from .contract import (
    COUNTER_NAMES,
    COUNTER_PREFIXES,
    TIMER_NAMES,
    is_declared_counter,
    is_declared_timer,
)
from .counters import Counters
from .manifest import RunManifest, config_hash, deterministic_hash
from .recorder import Recorder
from .sanitize import jsonable
from .timers import WallTimers

__all__ = [
    "COUNTER_NAMES",
    "COUNTER_PREFIXES",
    "TIMER_NAMES",
    "is_declared_counter",
    "is_declared_timer",
    "Counters",
    "WallTimers",
    "Recorder",
    "RunManifest",
    "config_hash",
    "deterministic_hash",
    "jsonable",
]
