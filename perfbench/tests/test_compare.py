"""compare.py's verdicts, and BENCHMARK.json mirroring perfbench.spec."""

import json

import pytest

from perfbench import compare
from perfbench.spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES


def _spread(values):
    values = sorted(values)
    n = len(values)
    return {"median": values[n // 2], "q1": values[0], "q3": values[-1], "n": n, "values": values}


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        # Tight runs, medians 2 % apart: within a 10 % bound.
        ([99, 100, 101], [97.5, 98, 102], "higher", "unchanged"),
        # Tight runs, 15 % slower: regressed.
        ([99, 100, 101], [84, 85, 86], "higher", "regressed"),
        # Lower is better: 15 % more memory is a regression.
        ([99, 100, 101], [114, 115, 116], "lower", "regressed"),
        # Every change run beats every parent run: improved.
        ([99, 100, 101], [102, 103, 104], "higher", "improved"),
        # Spread wider than the bound, overlapping runs: unresolved.
        ([80, 100, 120], [70, 90, 110], "higher", "unresolved"),
        # Wide spread, but every change run beats every parent run.
        ([80, 100, 120], [125, 150, 175], "higher", "improved"),
    ],
)
def test_classify(parent, change, better, expected):
    assert compare.classify(_spread(parent), _spread(change), better, 0.10) == expected


def _payload(values, failed=0, attempted=6):
    return {
        "workloads": {
            "table2-antidope": {
                "end_to_end": {name: _spread(values) for name, _, _ in END_TO_END},
                "failed": failed,
                "attempted": attempted,
                "failed_run_share": failed / attempted,
            }
        }
    }


def test_failed_run_share_may_not_rise():
    rows = compare.compare(_payload([100, 100, 100]), _payload([100, 100, 100], failed=1),
                           compare.load_bounds())
    verdicts = {metric: verdict for _, metric, verdict, _ in rows}
    assert verdicts["failed_run_share"] == "regressed"
    assert verdicts["sim_s_per_ref_cpu_s"] == "unchanged"
    details = [detail for _, metric, _, detail in rows if metric == "sim_s_per_ref_cpu_s"]
    assert "base: parent median" in details[0]


def test_benchmark_json_mirrors_spec():
    with open(compare.BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    bounds = {name: bound for name, (_, _, bound) in compare.load_bounds().items()}
    assert bounds["setup_s"] == max(bounds.values())
