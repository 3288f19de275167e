"""Ordering and fail-fast tests for :mod:`repro.runner.executor`.

The runner's promise is that values come back in cell order for any
worker count, and that the first failing cell — an experiment that
raises, or a worker process that dies hard — raises a structured
:class:`CellError` naming the cell, with the experiment's exception as
its cause, instead of running the rest of the sweep first.
"""

import gc
import os
import weakref
from concurrent.futures import BrokenExecutor

import pytest

from repro.runner import CellError, run_cells

WORKERS = 3


def square(x, seed):
    return {"value": float(x * x + seed)}


def raise_on_two(x, seed):
    if x == 2:
        raise ValueError(f"injected failure at x={x}")
    return {"value": float(x)}


def exit_on_two(x, seed):
    if x == 2:
        os._exit(17)  # hard death: no exception, no cleanup, broken pool
    return {"value": float(x)}


def mark_then_raise_on_two(x, seed, marker_dir):
    with open(os.path.join(marker_dir, f"ran-{x}"), "w", encoding="utf-8"):
        pass
    return raise_on_two(x, seed)


def fail_once_marker(x, seed, marker_dir):
    marker = os.path.join(marker_dir, f"attempt-{x}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("first attempt\n")
        raise RuntimeError("flaky: first attempt always fails")
    return {"value": float(x)}


def cells_for(values, extra=None):
    return [{"x": x, "seed": 0, **(extra or {})} for x in values]


def assert_names_cell_two(err, index):
    assert isinstance(err, CellError)
    assert err.index == index
    assert err.params == {"x": 2, "seed": 0}
    assert f"cell {index} " in str(err)
    assert "'x': 2" in str(err)
    assert "ValueError: injected failure at x=2" in str(err)
    assert isinstance(err.__cause__, ValueError)
    assert "injected failure" in str(err.__cause__)


class TestSerialExecution:
    def test_values_in_spec_order(self):
        values = run_cells(square, cells_for([3, 1, 2]))
        assert values == [{"value": 9.0}, {"value": 1.0}, {"value": 4.0}]

    def test_raising_cell_becomes_cell_error(self):
        with pytest.raises(CellError) as info:
            run_cells(raise_on_two, cells_for([1, 2, 3]))
        assert_names_cell_two(info.value, index=1)

    def test_cells_after_the_failing_cell_never_run(self, tmp_path):
        with pytest.raises(CellError):
            run_cells(
                mark_then_raise_on_two,
                cells_for([1, 2, 3], extra={"marker_dir": str(tmp_path)}),
            )
        assert sorted(os.listdir(tmp_path)) == ["ran-1", "ran-2"]

    def test_zero_retries_fails_immediately(self, tmp_path):
        # A cell that would pass on a second attempt still fails: the
        # runner never retries.
        with pytest.raises(CellError) as info:
            run_cells(
                fail_once_marker,
                cells_for([5], extra={"marker_dir": str(tmp_path)}),
            )
        assert isinstance(info.value.__cause__, RuntimeError)
        assert os.listdir(tmp_path) == ["attempt-5"]

    def test_young_cell_garbage_is_freed_before_the_next_cell(self):
        # A cell that returns leaves its objects behind as cyclic garbage
        # (a simulation's engine and its scheduled callbacks); while that
        # garbage is still in the young generations, the runner frees it
        # before the next cell instead of leaving it to a later
        # collection, which a sweep of short cells may never reach.
        class Node:
            pass

        refs = []

        def leave_a_cycle(x, seed):
            previous_alive = bool(refs) and refs[-1]() is not None
            node = Node()
            node.me = node
            refs.append(weakref.ref(node))
            return {"previous_alive": previous_alive}

        gc.collect()
        values = run_cells(leave_a_cycle, cells_for([1, 2, 3]))
        assert [v["previous_alive"] for v in values] == [False] * 3
        assert refs[-1]() is None


class TestParallelExecution:
    def test_values_in_spec_order(self):
        values = run_cells(square, cells_for([4, 2, 7, 1]), workers=WORKERS)
        assert values == [
            {"value": 16.0},
            {"value": 4.0},
            {"value": 49.0},
            {"value": 1.0},
        ]

    def test_raising_cell_raises_cell_error(self):
        with pytest.raises(CellError) as info:
            run_cells(raise_on_two, cells_for([0, 1, 2, 3, 4]), workers=WORKERS)
        assert_names_cell_two(info.value, index=2)

    def test_hard_exit_raises_cell_error(self):
        # Every in-flight cell dies with the pool, so the error names the
        # first unfinished cell in cell order: the crashing cell or one
        # running beside it.
        with pytest.raises(CellError) as info:
            run_cells(exit_on_two, cells_for([0, 1, 2, 3, 4]), workers=WORKERS)
        err = info.value
        assert err.index in (0, 1, 2)
        assert "worker pool broke" in str(err)
        assert isinstance(err.__cause__, BrokenExecutor)

    def test_cell_error_message_names_the_cell(self):
        with pytest.raises(CellError) as info:
            run_cells(raise_on_two, cells_for([2]), workers=2)
        assert_names_cell_two(info.value, index=0)


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_cells(square, cells_for([1]), workers=0)

    def test_empty_specs_is_empty_result(self):
        assert run_cells(square, []) == []
        assert run_cells(square, [], workers=WORKERS) == []
