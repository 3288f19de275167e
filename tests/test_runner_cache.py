"""Tests for the on-disk result cache and its content-hash keying.

The contract: same ``(experiment id, params, repro version)`` hits;
changing any one of the three misses (a cell's seed is one of its
params); a truncated or corrupted entry falls back to recompute instead
of crashing; cached values round-trip floats exactly, so cached sweeps
stay byte-identical; and every cell that finished before a failing cell
is stored, so the rerun reuses it.
"""

import json
import os

import pytest

from repro.obs import Recorder
from repro.runner import (
    CellError,
    ResultCache,
    canonical_json,
    cell_key,
    default_experiment_id,
    run_cells,
)


def counting_experiment(x, seed, counter_dir):
    """Record every real invocation so tests can observe cache hits."""
    path = os.path.join(counter_dir, "calls.log")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{x},{seed}\n")
    return {"value": float(x) * 10.0 + seed, "precise": 0.1 + 0.2}


def call_count(counter_dir) -> int:
    path = os.path.join(counter_dir, "calls.log")
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        return len(fh.readlines())


def fail_while_flagged(x, seed, counter_dir):
    """``counting_experiment`` that raises at x=3 while a flag file exists."""
    if x == 3 and os.path.exists(os.path.join(counter_dir, "fail")):
        raise RuntimeError("flagged to fail")
    return counting_experiment(x, seed, counter_dir)


def cells_for(values, counter_dir, seed=0):
    return [
        {"x": x, "seed": seed, "counter_dir": str(counter_dir)} for x in values
    ]


class TestCellKey:
    def test_same_inputs_same_key(self):
        a = cell_key("exp", {"a": 1, "b": 2.5})
        b = cell_key("exp", {"b": 2.5, "a": 1})  # order-insensitive
        assert a == b

    def test_any_param_change_misses(self):
        base = cell_key("exp", {"a": 1, "b": 2.5})
        assert cell_key("exp", {"a": 2, "b": 2.5}) != base
        assert cell_key("exp", {"a": 1, "b": 2.500001}) != base
        assert cell_key("exp", {"a": 1}) != base

    def test_seed_change_misses(self):
        # Every sweep passes a cell's seed as one of its params.
        assert cell_key("exp", {"a": 1, "seed": 3}) != cell_key(
            "exp", {"a": 1, "seed": 4}
        )

    def test_experiment_change_misses(self):
        assert cell_key("exp1", {"a": 1}) != cell_key("exp2", {"a": 1})

    def test_repro_version_change_misses(self):
        assert cell_key("exp", {"a": 1}, version="1.1.0") != cell_key(
            "exp", {"a": 1}, version="1.2.0"
        )

    def test_unserialisable_param_rejected(self):
        with pytest.raises(TypeError):
            cell_key("exp", {"a": object()})

    def test_canonical_json_handles_enums_and_tuples(self):
        from repro.power import BudgetLevel

        text = canonical_json({"level": BudgetLevel.LOW, "axes": (1, 2)})
        assert "BudgetLevel.LOW" in text
        assert json.loads(text)["axes"] == [1, 2]

    def test_default_experiment_id_rejects_lambdas(self):
        assert default_experiment_id(counting_experiment).endswith(
            "counting_experiment"
        )
        with pytest.raises(TypeError):
            default_experiment_id(lambda s: {"x": 1.0})


class TestResultCache:
    def test_same_cell_hits_without_reexecution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = cells_for([1, 2], tmp_path)
        first = run_cells(counting_experiment, cells, cache=cache)
        assert call_count(tmp_path) == 2
        recorder = Recorder()
        second = run_cells(
            counting_experiment, cells, cache=cache, recorder=recorder
        )
        assert call_count(tmp_path) == 2  # nothing re-ran
        assert cache.hits == 2
        assert second == first
        assert recorder.counters.get("runner.cache_hits") == 2
        assert recorder.counters.get("runner.cells_executed") == 0

    def test_float_values_round_trip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = cells_for([3], tmp_path)
        first = run_cells(counting_experiment, cells, cache=cache)
        second = run_cells(counting_experiment, cells, cache=cache)
        assert second[0]["precise"] == first[0]["precise"]
        assert repr(second[0]["precise"]) == repr(0.1 + 0.2)

    def test_param_or_seed_change_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_cells(counting_experiment, cells_for([1], tmp_path), cache=cache)
        run_cells(counting_experiment, cells_for([2], tmp_path), cache=cache)
        run_cells(
            counting_experiment, cells_for([1], tmp_path, seed=9), cache=cache
        )
        assert call_count(tmp_path) == 3
        assert cache.hits == 0

    def test_experiment_id_change_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = cells_for([1], tmp_path)
        run_cells(counting_experiment, cells, cache=cache, experiment_id="a")
        run_cells(counting_experiment, cells, cache=cache, experiment_id="b")
        assert call_count(tmp_path) == 2

    def test_truncated_entry_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = cells_for([4], tmp_path)
        first = run_cells(counting_experiment, cells, cache=cache)
        (entry,) = list((tmp_path / "cache").glob("??/*.json"))
        entry.write_text(entry.read_text()[:10])  # truncate mid-document
        recorder = Recorder()
        again = run_cells(
            counting_experiment, cells, cache=cache, recorder=recorder
        )
        assert again == first
        assert recorder.counters.get("runner.cache_misses") == 1
        assert call_count(tmp_path) == 2
        # The recompute healed the entry: next run hits again.
        run_cells(counting_experiment, cells, cache=cache)
        assert call_count(tmp_path) == 2

    def test_corrupted_json_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = cells_for([5], tmp_path)
        first = run_cells(counting_experiment, cells, cache=cache)
        (entry,) = list((tmp_path / "cache").glob("??/*.json"))
        entry.write_text('{"key": "wrong", "value": "not-a-dict"}')
        assert run_cells(counting_experiment, cells, cache=cache) == first
        assert call_count(tmp_path) == 2

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(CellError):
            run_cells(_always_raise, [{"seed": 0}], cache=cache)
        assert len(cache) == 0

    @pytest.mark.parametrize("workers", [1, 3])
    def test_cells_finished_before_a_failure_are_reused(self, tmp_path, workers):
        cache = ResultCache(tmp_path / "cache")
        cells = cells_for([1, 2, 3], tmp_path)
        (tmp_path / "fail").touch()
        with pytest.raises(CellError) as info:
            run_cells(fail_while_flagged, cells, workers=workers, cache=cache)
        assert info.value.index == 2
        assert len(cache) == 2
        (tmp_path / "fail").unlink()
        recorder = Recorder()
        values = run_cells(
            fail_while_flagged, cells, workers=workers, cache=cache, recorder=recorder
        )
        assert [v["value"] for v in values] == [10.0, 20.0, 30.0]
        assert recorder.counters.get("runner.cache_hits") == 2
        assert recorder.counters.get("runner.cache_misses") == 1
        assert recorder.counters.get("runner.cells_executed") == 1
        assert call_count(tmp_path) == 3

    def test_cache_requires_stable_experiment_identity(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(TypeError):
            run_cells(lambda seed: {"x": 1.0}, [{"seed": 0}], cache=cache)

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            cache.path_for("../../etc/passwd")


def _always_raise(seed):
    raise RuntimeError("never cache me")
