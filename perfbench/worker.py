"""One benchmark run, in a fresh process.

    python -m perfbench.worker --workload NAME --seed N [--scale F]
                               [--mode timed|setup|traced]

Prints one JSON record as its last line of output and exits 0 when the
run passed its checks, 1 otherwise.  Modes:

* ``timed`` — set up, run with tracing off, check the outputs;
* ``setup`` — set up only (more samples of the set-up time);
* ``traced`` — install the layer tracer, then set up and run under it.

Times are CPU seconds of this single-threaded process
(``time.process_time``).  On an idle host they equal wall seconds; on a
shared one they leave out time the hypervisor or the scheduler gave to
others.  ``setup_s`` is the process's CPU time when the workload is
ready, so it covers interpreter start, ``import repro`` and the cold
construction of the workload; ``setup_loop_s`` is the fastest of
:data:`SETUP_LOOPS` passes of the reference loop
(:mod:`perfbench.calibration`) made right after.  A timed run also
reports ``slices_cpu_s``, the run's CPU time cut at every
:data:`SLICE_SAMPLES`-th power-meter sample, which marks the same
simulated work in every run of one seed, and ``loops_cpu_s``, the
reference loop timed before the first slice and after every
:data:`LOOP_EVERY`-th.  Reference-loop time is left out of the run's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench import calibration

#: Power-meter samples (one per simulated second) per timing slice.
SLICE_SAMPLES = 20
#: Slices between two passes of the reference loop during a timed run.
#: Contention on a shared host changes within seconds, so the loop is
#: passed often.  On a busy host, with runs taken two at a time as in an
#: invocation, the rate spread 7-13 % with a pass every 10 slices and
#: 1-6 % with one every 2.
LOOP_EVERY = 2
#: Reference-loop passes after set-up.
SETUP_LOOPS = 5


@contextmanager
def sliced(tracer) -> Iterator[Tuple[List[float], List[float]]]:
    """Slice times and reference-loop times of the enclosed run.

    Yields two lists, filled as the run goes: CPU seconds per
    :data:`SLICE_SAMPLES` meter samples, and CPU seconds of the
    reference loop, passed before the first slice and after every
    :data:`LOOP_EVERY`-th.  Wraps ``PowerMeter.sample`` on its class,
    which changes no output.  The loop runs as *tracer*-excluded work,
    and excluded work is left out of every slice; *tracer*'s clock must
    be ``process_time``.
    """
    from repro.power.meter import PowerMeter

    original = PowerMeter.__dict__["sample"]
    slices_s: List[float] = []
    loops_s: List[float] = []

    def now() -> float:
        return time.process_time() - tracer.excluded_s

    def pass_loop() -> None:
        with tracer.excluded():
            loops_s.append(calibration.loop())

    count = 0

    def sample(meter):
        nonlocal count, start
        result = original(meter)
        count += 1
        if count % SLICE_SAMPLES == 0:
            slices_s.append(now() - start)
            if len(slices_s) % LOOP_EVERY == 0:
                pass_loop()
            start = now()
        return result

    pass_loop()
    start = now()
    PowerMeter.sample = sample
    try:
        yield slices_s, loops_s
    finally:
        PowerMeter.sample = original
        slices_s.append(now() - start)


def execute(name: str, seed: int, scale: float, mode: str) -> Dict[str, object]:
    """Make one run and return its record (see the module docstring)."""
    from perfbench import checks, workloads
    from perfbench.tracer import Tracer

    import numpy
    import repro

    make = workloads.WORKLOADS[name]
    # Untraced, the tracer only keeps the excluded time, in CPU seconds.
    # Traced, its layer times are wall seconds; the excluded blocks are
    # CPU-bound, so their wall time stands for their CPU time below.
    tracer = Tracer() if mode == "traced" else Tracer(clock=time.process_time)
    if mode == "traced":
        tracer.install()
    slices_cpu_s: List[float] = []
    loops_cpu_s: List[float] = []
    try:
        with tracer.root():
            prepared = make(seed, scale)
            setup_s = time.process_time()
            with tracer.excluded():
                setup_loop_s = min(calibration.loop() for _ in range(SETUP_LOOPS))
            if mode == "setup":
                return {
                    "ok": True,
                    "errors": [],
                    "setup_s": setup_s,
                    "setup_loop_s": setup_loop_s,
                    "repro_file": repro.__file__,
                }
            start = time.process_time()
            excluded_before_s = tracer.excluded_s
            if mode == "timed":
                with sliced(tracer) as (slices_cpu_s, loops_cpu_s):
                    sim_s = prepared.run(tracer)
            else:
                sim_s = prepared.run(tracer)
            run_cpu_s = (
                time.process_time() - start - (tracer.excluded_s - excluded_before_s)
            )
    finally:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest_inputs, stats = prepared.facts()
    errors: List[str] = checks.conservation_errors(stats)
    fidelity_err = 0.0
    if name == "volume-flood":
        reference = checks.load_reference()
        fidelity_err, fidelity_errors = checks.fluid_fidelity(
            reference["fluid_prefix"]["batched"]
        )
        errors.extend(fidelity_errors)
    record: Dict[str, object] = {
        "ok": not errors,
        "errors": errors,
        "setup_s": setup_s,
        "setup_loop_s": setup_loop_s,
        "sim_s": sim_s,
        "run_cpu_s": run_cpu_s,
        "slices_cpu_s": slices_cpu_s,
        "loops_cpu_s": loops_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": checks.digest(digest_inputs),
        "repro_file": repro.__file__,
        "numpy": numpy.__version__,
    }
    if mode == "traced":
        record["layers"] = tracer.layer_metrics(stats, fidelity_err)
        record["trace_root_s"] = tracer.root_s
        record["trace_excluded_s"] = tracer.excluded_s
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("timed", "setup", "traced"), default="timed")
    args = parser.parse_args(argv)
    try:
        record = execute(args.workload, args.seed, args.scale, args.mode)
    except Exception:  # the run failed; report it, never crash the parent
        record = {"ok": False, "errors": [traceback.format_exc()]}
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
