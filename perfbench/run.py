"""perfbench: repeated, isolated, checked runs of every workload.

From the repository root::

    python3 perfbench/run.py [--seed 7] [--runs 5] [--workload NAME ...]
                             [--out FILE]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload ``--runs`` times with tracing off,
interleaving the workloads round-robin, then once more each under the
layer tracer; it prints every metric with its unit and writes the
payload to ``--out``.  The second form measures one workload in at
least two rounds, adding rounds while another one still fits in
``--seconds``, and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``PYTHONPATH=src python -m perfbench.run`` works too.

Every run is a fresh ``perfbench.worker`` process, one at a time, with
single-threaded numeric libraries, ``PYTHONHASHSEED=0`` and no
``REPRO_BENCH_ENGINE``.  Each timed run is followed by
:data:`SETUP_PROBES` set-up-only runs, so ``setup_s`` has several
samples per run.

Times are reported in reference CPU seconds
(:mod:`perfbench.calibration`): CPU seconds rescaled by how fast the
host ran a fixed reference loop at the time.  ``sim_s_per_ref_cpu_s``
is the simulated time over the sum, across the run's slices, of each
slice's fastest CPU time among the invocation's timed runs, rescaled by
the reference loop's fastest times at the same points
(:func:`best_ref_cpu_s`).  Every run of one seed does the same work
slice by slice, so a burst of contention on the host slows a slice in
one run only, and the fastest copy of each slice is kept.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__" and not __package__:
    sys.path[0] = str(ROOT)

from perfbench.calibration import to_reference_s  # noqa: E402  (needs the path fix above)
from perfbench.checks import load_reference  # noqa: E402
from perfbench.spec import (  # noqa: E402
    END_TO_END,
    LAYERS,
    PER_LAYER,
    REFERENCE_SEED,
    WORKLOAD_NAMES,
)

#: Set-up-only runs made after each timed run.
SETUP_PROBES = 2
#: A run still going after this long is killed and counted as failed.
RUN_TIMEOUT_S = 120.0
DEFAULT_OUT = ROOT / "perfbench" / "out" / "payload.json"

Launcher = Callable[[str, int, str], Dict[str, object]]


def child_env() -> Dict[str, str]:
    """The environment of every run: isolated and single-threaded."""
    env = dict(os.environ)
    env.pop("REPRO_BENCH_ENGINE", None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def launch(workload: str, seed: int, mode: str, scale: float = 1.0) -> Dict[str, object]:
    """Make one run in a fresh process and return its record.

    A run that raises, exits non-zero, times out or prints no record
    comes back as a record with ``ok`` false; this never raises.
    """
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--mode", mode,
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _failed(mode, f"run timed out after {RUN_TIMEOUT_S:.0f} s")
    record = _last_json_line(proc.stdout)
    if record is None:
        return _failed(
            mode, f"exit code {proc.returncode}, no record; stderr: {proc.stderr[-2000:]}"
        )
    record["mode"] = mode
    repro_file = record.get("repro_file")
    if repro_file is not None and not Path(repro_file).resolve().is_relative_to(
        ROOT / "src"
    ):
        record["ok"] = False
        record["errors"].append(f"imported repro from outside this checkout: {repro_file}")
    if proc.returncode != 0 and record["ok"]:
        record["ok"] = False
        record["errors"].append(f"exit code {proc.returncode}")
    return record


def _failed(mode: str, error: str) -> Dict[str, object]:
    return {"ok": False, "mode": mode, "errors": [error]}


def _last_json_line(text: str) -> Optional[Dict[str, object]]:
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


def collect(
    workloads: Sequence[str],
    seed: int,
    runs: int,
    seconds: float,
    traced: bool,
    launcher: Launcher = launch,
) -> Dict[str, List[Dict[str, object]]]:
    """Every run's record, by workload.

    Rounds go round-robin over *workloads*: one timed run and
    :data:`SETUP_PROBES` set-up runs each.  After *runs* rounds, rounds
    continue while one more, as long as the longest so far, keeps every
    workload within *seconds*; then, if *traced*, one traced run per
    workload.
    """
    records: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    measured_s = dict.fromkeys(workloads, 0.0)
    longest_s = dict.fromkeys(workloads, 0.0)
    rounds = 0
    while rounds < runs or all(measured_s[w] + longest_s[w] <= seconds for w in workloads):
        for workload in workloads:
            start = time.monotonic()
            records[workload].append(launcher(workload, seed, "timed"))
            for _ in range(SETUP_PROBES):
                records[workload].append(launcher(workload, seed, "setup"))
            elapsed_s = time.monotonic() - start
            measured_s[workload] += elapsed_s
            longest_s[workload] = max(longest_s[workload], elapsed_s)
        rounds += 1
    if traced:
        for workload in workloads:
            records[workload].append(launcher(workload, seed, "traced"))
    return records


def spread(values: Sequence[float]) -> Optional[Dict[str, object]]:
    """Median, first and third quartile of *values*, with their count.

    ``value``, the number the result line reports, is the median.
    """
    if not values:
        return None
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "value": median,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": list(values),
    }


def _fastest(series: Sequence[Sequence[float]]) -> List[float]:
    """Position by position, the least of several equally long series."""
    return [min(times) for times in zip(*series)]


def best_ref_cpu_s(timed: Sequence[Dict[str, object]]) -> float:
    """The run's reference CPU seconds, from the fastest copy of each slice.

    Sums each slice's least CPU time among *timed* runs, and rescales by
    the mean over positions of the reference loop's least time there.
    All runs of one invocation share one digest, so they cut the same
    work into the same slices and pass the loop at the same points.
    """
    cpu_s = sum(_fastest([r["slices_cpu_s"] for r in timed]))
    loop_s = statistics.fmean(_fastest([r["loops_cpu_s"] for r in timed]))
    return to_reference_s(cpu_s, loop_s)


def summarize(
    records: List[Dict[str, object]], expected_digest: Optional[str]
) -> Dict[str, object]:
    """Check digests across runs, count failures and aggregate metrics.

    The digest every run must show is *expected_digest* when given (the
    reference seed), otherwise the most common digest among the runs.
    """
    digests = [r["digest"] for r in records if r["ok"] and "digest" in r]
    if expected_digest is None and digests:
        expected_digest = collections.Counter(digests).most_common(1)[0][0]
    for record in records:
        if record["ok"] and "digest" in record and record["digest"] != expected_digest:
            record["ok"] = False
            record["errors"].append(
                f"digest {record['digest']} differs from expected {expected_digest}"
            )
    ok = [r for r in records if r["ok"]]
    timed = [r for r in ok if r["mode"] == "timed"]
    rate = spread(
        [
            r["sim_s"] / to_reference_s(r["run_cpu_s"], statistics.fmean(r["loops_cpu_s"]))
            for r in timed
        ]
    )
    if rate is not None:
        rate["value"] = timed[0]["sim_s"] / best_ref_cpu_s(timed)
    setups = [r for r in ok if r["mode"] in ("timed", "setup")]
    end_to_end = {
        "sim_s_per_ref_cpu_s": rate,
        "setup_s": spread([to_reference_s(r["setup_s"], r["setup_loop_s"]) for r in setups]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in timed]),
    }
    per_layer: Dict[str, float] = {}
    trace: Dict[str, float] = {}
    traced = [r for r in ok if r["mode"] == "traced"]
    if traced and timed:
        run = traced[0]
        per_layer = dict(run["layers"])
        untraced_cpu_s = statistics.median(r["run_cpu_s"] for r in timed)
        per_layer["trace.overhead_ratio"] = run["run_cpu_s"] / untraced_cpu_s
        traced_s = run["trace_root_s"] - run["trace_excluded_s"]
        self_s = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
        trace = {
            "root_s": run["trace_root_s"],
            "excluded_s": run["trace_excluded_s"],
            "untraced_run_cpu_s": untraced_cpu_s,
            "layer_self_s_sum": self_s,
            "attributed_share": self_s / traced_s,
        }
    attempted = len(records)
    failed = attempted - len(ok)
    return {
        "attempted": attempted,
        "failed": failed,
        "failed_run_share": failed / attempted if attempted else 1.0,
        "digest": expected_digest,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace": trace,
        "errors": [e for r in records for e in r.get("errors", [])],
        "runs": [{k: r.get(k) for k in _RUN_KEYS} for r in records],
    }


_RUN_KEYS = (
    "mode",
    "ok",
    "setup_s",
    "setup_loop_s",
    "sim_s",
    "run_cpu_s",
    "peak_rss_mb",
    "digest",
)


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(records: Dict[str, List[Dict[str, object]]]) -> Dict[str, object]:
    numpy_versions = {r["numpy"] for rs in records.values() for r in rs if "numpy" in r}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sorted(numpy_versions),
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def report(name: str, summary: Dict[str, object]) -> List[str]:
    """Human-readable lines: every metric by name, with its unit."""
    lines = [
        f"{name}: attempted {summary['attempted']}, failed {summary['failed']}, "
        f"failed_run_share {summary['failed_run_share']:.4g} ratio, "
        f"digest {summary['digest']}"
    ]
    for metric, unit, _ in END_TO_END:
        stats = summary["end_to_end"][metric]
        if stats is None:
            lines.append(f"  {metric}: no successful run")
            continue
        lines.append(
            f"  {metric}: {stats['value']:.6g} {unit} (runs: median {stats['median']:.6g}, "
            f"Q1 {stats['q1']:.6g}, Q3 {stats['q3']:.6g}, n={stats['n']})"
        )
    for metric, unit, _ in PER_LAYER:
        if metric in summary["per_layer"]:
            value = summary["per_layer"][metric]
            shown = str(value) if isinstance(value, int) else f"{value:.6g}"
            lines.append(f"  {metric}: {shown} {unit}")
    if summary["trace"]:
        lines.append(
            f"  layer self times sum to {summary['trace']['attributed_share']:.4%} "
            f"of the traced root wall"
        )
    lines.extend(f"  error: {e.strip()}" for e in summary["errors"])
    return lines


def result_line(summary: Dict[str, object], trace: bool) -> Dict[str, object]:
    """The one-line result of a single-workload measurement."""
    metrics = {}
    if trace:
        for metric, unit, _ in PER_LAYER:
            metrics[metric] = {"value": summary["per_layer"].get(metric, 0.0), "unit": unit}
    else:
        for metric, unit, _ in END_TO_END:
            stats = summary["end_to_end"][metric]
            metrics[metric] = {"value": stats["value"] if stats else 0.0, "unit": unit}
    failed = summary["failed"]
    if trace and not summary["per_layer"]:
        failed = max(failed, 1)
    return {
        "correct": failed == 0,
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the DOPE simulator: repeated, isolated, checked runs."
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOAD_NAMES,
        help="workload to run (repeatable; default: all)",
    )  # fmt: skip
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument(
        "--runs", type=int, default=None,
        help="timed runs per workload (default 5, or 2 with --seconds)",
    )  # fmt: skip
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep adding runs until each workload was measured this long",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="single-workload mode: print end-to-end (0) or per-layer (1) "
        "metrics as one JSON line",
    )  # fmt: skip
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOAD_NAMES)
    if args.trace is not None and len(workloads) != 1:
        parser.error("--trace needs exactly one --workload")
    # Imports normally load cached bytecode.  Compile it once, untimed, so
    # set-up never includes compiling, even where PYTHONDONTWRITEBYTECODE
    # keeps the runs from writing the cache themselves.
    for package in (ROOT / "src", ROOT / "perfbench"):
        compileall.compile_dir(package, quiet=1)
    runs = args.runs if args.runs is not None else (2 if args.seconds else 5)
    traced = args.trace != 0

    records = collect(workloads, args.seed, runs, args.seconds, traced)
    reference = load_reference()["digests"] if args.seed == REFERENCE_SEED else {}
    summaries = {w: summarize(records[w], reference.get(w)) for w in workloads}
    for name, summary in summaries.items():
        print("\n".join(report(name, summary)))

    payload = {
        "schema": "perfbench/1",
        "seed": args.seed,
        "runs": runs,
        "seconds": args.seconds,
        "environment": environment(records),
        "workloads": summaries,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"payload written to {args.out}")
    if args.trace is not None:
        print(json.dumps(result_line(summaries[workloads[0]], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
