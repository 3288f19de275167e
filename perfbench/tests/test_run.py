"""run.py: failed runs are counted, never fatal; the result line's shape."""

import json

import pytest

from perfbench import run
from perfbench.calibration import REFERENCE_S
from perfbench.spec import END_TO_END, PER_LAYER


def _good(mode, value=100.0, digest="d1", slices=None, slowdown=1.0):
    """A passing record from a host *slowdown* times slower than the reference."""
    record = {
        "ok": True,
        "mode": mode,
        "errors": [],
        "setup_s": 0.2 * slowdown,
        "setup_loop_s": REFERENCE_S * slowdown,
    }
    if mode != "setup":
        run_cpu_s = 1000.0 / value
        slices = slices or [run_cpu_s / 2, run_cpu_s / 2]
        record.update(
            digest=digest,
            sim_s=1000.0,
            run_cpu_s=run_cpu_s * slowdown,
            slices_cpu_s=[s * slowdown for s in slices],
            loops_cpu_s=[REFERENCE_S * slowdown] * 2,
            peak_rss_mb=50.0,
        )
    return record


def test_a_run_that_raises_is_a_failed_run():
    record = run.launch("no-such-workload", 7, "timed")
    assert record["ok"] is False
    assert any("KeyError" in error for error in record["errors"])


def test_failures_count_and_other_runs_continue():
    calls = []

    def launcher(workload, seed, mode):
        calls.append((workload, mode))
        if workload == "b" and mode == "timed" and len(calls) < 8:
            return {"ok": False, "mode": mode, "errors": ["raised"]}
        return _good(mode)

    records = run.collect(["a", "b"], 7, runs=2, seconds=0.0, traced=False, launcher=launcher)
    assert [mode for w, mode in calls if w == "a"] == ["timed", "setup", "setup"] * 2
    summary = run.summarize(records["b"], expected_digest=None)
    attempted = 2 * (1 + run.SETUP_PROBES)
    assert (summary["attempted"], summary["failed"]) == (attempted, 1)
    assert summary["failed_run_share"] == 1 / attempted
    assert summary["end_to_end"]["sim_s_per_ref_cpu_s"]["n"] == 1
    assert summary["end_to_end"]["setup_s"]["n"] == attempted - 1


def test_rounds_stop_before_overshooting_seconds(monkeypatch):
    clock = [0.0]

    def launcher(workload, seed, mode):
        clock[0] += 3.0 if mode == "timed" else 0.5
        return _good(mode)

    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    records = run.collect(["a"], 7, runs=1, seconds=17.0, traced=False, launcher=launcher)
    # Rounds of 4 s: a fifth would end at 20 s, past the 17 s asked for.
    assert sum(r["mode"] == "timed" for r in records["a"]) == 4


@pytest.mark.parametrize("slowdown", [1.0, 1.5])
def test_rate_keeps_each_slices_fastest_run_at_reference_speed(slowdown):
    # Each run was slowed in a different slice; the fastest copies sum to
    # 6 s.  A host slower throughout ran the reference loop slower too.
    records = [
        _good("timed", slices=[9.0, 3.0, 3.0], slowdown=slowdown),
        _good("timed", slices=[1.0, 8.0, 3.0], slowdown=slowdown),
        _good("timed", slices=[1.0, 2.0, 7.0], slowdown=slowdown),
    ]
    end_to_end = run.summarize(records, expected_digest=None)["end_to_end"]
    rate = end_to_end["sim_s_per_ref_cpu_s"]
    assert rate["value"] == pytest.approx(1000.0 / 6.0)
    assert rate["median"] == pytest.approx(100.0)
    assert end_to_end["setup_s"]["value"] == pytest.approx(0.2)


def test_digest_mismatch_fails_the_run():
    records = [_good("timed", digest="d1"), _good("timed", digest="d2"), _good("timed")]
    summary = run.summarize(records, expected_digest=None)
    assert summary["failed"] == 1 and summary["digest"] == "d1"
    summary = run.summarize([_good("timed")], expected_digest="ref")
    assert summary["failed"] == 1


def test_result_line_shape():
    summary = run.summarize([_good("timed", v) for v in (90.0, 100.0, 110.0)], None)
    line = run.result_line(summary, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 3
    assert set(line["metrics"]) == {name for name, _, _ in END_TO_END}
    # Every slice was fastest in the 110 sim-s/ref-cpu-s run.
    assert line["metrics"]["sim_s_per_ref_cpu_s"] == {
        "value": pytest.approx(110.0),
        "unit": "sim-s/ref-cpu-s",
    }
    assert line["metrics"]["setup_s"] == {"value": pytest.approx(0.2), "unit": "s"}
    json.dumps(line, allow_nan=False)

    # No traced run: every per-layer metric is still present, and the
    # result is not correct.
    line = run.result_line(summary, trace=True)
    assert set(line["metrics"]) == {name for name, _, _ in PER_LAYER}
    assert line["correct"] is False
