"""Tracing changes no output, and the traced counts repeat exactly."""

import pytest

from perfbench import checks, worker
from perfbench.spec import LAYERS, WORKLOAD_NAMES

SCALE = 1.0 / 20.0
EXACT_COUNTS = (
    "sim.engine.heap_events",
    "sim.engine.inline_arrivals",
    "sim.fluid.arrivals",
    "sim.fluid.segments",
    "metrics.collector.records",
)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_digest_equals_untraced(name):
    untraced = worker.execute(name, 7, SCALE, "timed")
    traced = [worker.execute(name, 7, SCALE, "traced") for _ in range(2)]
    for record in [untraced] + traced:
        assert record["ok"], record["errors"]
        assert record["digest"] == untraced["digest"]
    # The slices cover the run; reference-loop passes are left out.
    assert len(untraced["slices_cpu_s"]) > 1 and untraced["loops_cpu_s"]
    assert sum(untraced["slices_cpu_s"]) == pytest.approx(untraced["run_cpu_s"], rel=0.01)

    first, second = (run["layers"] for run in traced)
    for metric in EXACT_COUNTS:
        assert first[metric] == second[metric], metric
    traced_s = traced[0]["trace_root_s"] - traced[0]["trace_excluded_s"]
    self_s = sum(first[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(self_s - traced_s) <= 0.01 * traced_s


def test_conservation_violation_is_reported():
    stats = {"conservation": [[10, 10], [12, 11]]}
    errors = checks.conservation_errors(stats)
    assert len(errors) == 1 and "12" in errors[0] and "11" in errors[0]


def test_digest_is_canonical():
    assert checks.digest({"b": 1, "a": [0.1, 2]}) == checks.digest({"a": [0.1, 2], "b": 1})
    # Floats enter with every digit.
    assert checks.digest({"a": 0.1}) != checks.digest({"a": 0.1000000000000001})
