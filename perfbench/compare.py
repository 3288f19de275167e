"""Compare two perfbench payloads, workload by workload.

    python3 perfbench/compare.py PARENT.json CHANGE.json

For every workload in both payloads and every end-to-end metric in
``BENCHMARK.json``, prints one verdict, with the change/parent ratio of
the medians and its base (the parent's median):

* **unresolved** — one side's spread (Q3 - Q1 over the median) is wider
  than the metric's bound, and not every change run beats every parent
  run;
* **regressed** — the change's median is worse than the parent's by more
  than the bound;
* **improved** — every change run beats every parent run, or the median
  is better by more than the bound;
* **unchanged** — otherwise.

``failed_run_share`` may not rise at all.  Exits 1 when anything
regressed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_bounds(path: Path = BENCHMARK_JSON) -> Dict[str, Tuple[str, str, float]]:
    """``{metric: (unit, better, bound)}`` from ``BENCHMARK.json``."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}


def _spread_share(stats: Dict[str, object]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"]


def classify(
    parent: Dict[str, object], change: Dict[str, object], better: str, bound: float
) -> str:
    """Verdict for one metric; *parent*/*change* are spread summaries."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change["median"] - parent["median"]) / parent["median"]
    all_better = all(
        sign * (c - p) > 0.0 for c in change["values"] for p in parent["values"]
    )
    if max(_spread_share(parent), _spread_share(change)) > bound:
        return "improved" if all_better else "unresolved"
    if gain < -bound:
        return "regressed"
    if all_better or gain > bound:
        return "improved"
    return "unchanged"


def compare(
    parent: Dict[str, object],
    change: Dict[str, object],
    bounds: Dict[str, Tuple[str, str, float]],
) -> List[Tuple[str, str, str, str]]:
    """``(workload, metric, verdict, detail)`` rows."""
    rows = []
    for workload, p in parent["workloads"].items():
        c = change["workloads"].get(workload)
        if c is None:
            continue
        for metric, (unit, better, bound) in bounds.items():
            ps, cs = p["end_to_end"].get(metric), c["end_to_end"].get(metric)
            if ps is None or cs is None:
                rows.append((workload, metric, "unresolved", "no successful run on one side"))
                continue
            verdict = classify(ps, cs, better, bound)
            detail = (
                f"change/parent {cs['median'] / ps['median']:.4f} "
                f"(base: parent median {ps['median']:.6g} {unit}, n={ps['n']}, "
                f"spread {_spread_share(ps):.2%}; change n={cs['n']}, "
                f"spread {_spread_share(cs):.2%}; bound {bound:.0%}, {better} is better)"
            )
            rows.append((workload, metric, verdict, detail))
        share_p, share_c = p["failed_run_share"], c["failed_run_share"]
        verdict = "regressed" if share_c > share_p else "unchanged"
        detail = (
            f"change {c['failed']}/{c['attempted']} vs parent "
            f"{p['failed']}/{p['attempted']} runs failed (may not rise)"
        )
        rows.append((workload, "failed_run_share", verdict, detail))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    payloads = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            payloads.append(json.load(handle))
    rows = compare(payloads[0], payloads[1], load_bounds())
    for workload, metric, verdict, detail in rows:
        print(f"{workload:20s} {metric:18s} {verdict:10s} {detail}")
    return 1 if any(row[2] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
