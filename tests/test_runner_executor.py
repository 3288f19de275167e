"""Crash-injection and ordering tests for :mod:`repro.runner.executor`.

The runner's promise is that a sweep is never killed by one bad cell:
an experiment that raises — or a worker process that dies hard — yields
a structured :class:`CellError` outcome, the pool survives, and every
other cell completes with its value in canonical order.
"""

import gc
import os
import weakref

import pytest

from repro.runner import CellError, CellOutcome, CellSpec, run_cells

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


def fail_once_marker(x, seed, marker_dir):
    marker = os.path.join(marker_dir, f"attempt-{x}")
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("first attempt\n")
        raise RuntimeError("flaky: first attempt always fails")
    return {"value": float(x)}


def specs_for(values, extra=None):
    extra = extra or {}
    return [
        CellSpec(index=i, params={"x": x, "seed": 0, **extra}, seed=0)
        for i, x in enumerate(values)
    ]


class TestSerialExecution:
    def test_values_in_spec_order(self):
        outcomes = run_cells(square, specs_for([3, 1, 2]))
        assert [o.value["value"] for o in outcomes] == [9.0, 1.0, 4.0]
        assert all(isinstance(o, CellOutcome) and o.ok for o in outcomes)

    def test_raising_cell_becomes_cell_error(self):
        outcomes = run_cells(raise_on_two, specs_for([1, 2, 3]))
        assert outcomes[0].ok and outcomes[2].ok
        err = outcomes[1].error
        assert isinstance(err, CellError)
        assert err.kind == "exception"
        assert err.exc_type == "ValueError"
        assert "injected failure" in err.message
        assert err.params["x"] == 2

    def test_deterministic_failure_is_retried_once(self):
        outcomes = run_cells(raise_on_two, specs_for([2]), retries=1)
        assert outcomes[0].error.attempts == 2

    def test_flaky_cell_succeeds_on_retry(self, tmp_path):
        outcomes = run_cells(
            fail_once_marker,
            specs_for([5], extra={"marker_dir": str(tmp_path)}),
            retries=1,
        )
        assert outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_zero_retries_fails_immediately(self, tmp_path):
        outcomes = run_cells(
            fail_once_marker,
            specs_for([5], extra={"marker_dir": str(tmp_path)}),
            retries=0,
        )
        assert not outcomes[0].ok
        assert outcomes[0].error.attempts == 1

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
        outcomes = run_cells(leave_a_cycle, specs_for([1, 2, 3]))
        assert [o.value["previous_alive"] for o in outcomes] == [False] * 3
        assert refs[-1]() is None


class TestParallelExecution:
    def test_values_in_spec_order(self):
        outcomes = run_cells(square, specs_for([4, 2, 7, 1]), workers=WORKERS)
        assert [o.value["value"] for o in outcomes] == [16.0, 4.0, 49.0, 1.0]

    def test_raising_cell_survives_pool(self):
        outcomes = run_cells(
            raise_on_two, specs_for([0, 1, 2, 3, 4]), workers=WORKERS
        )
        values = {o.spec.params["x"]: o for o in outcomes}
        err = values[2].error
        assert isinstance(err, CellError)
        assert err.kind == "exception"
        assert err.attempts == 2  # retried once, then surfaced
        assert "injected failure" in err.traceback_text
        for x in (0, 1, 3, 4):
            assert values[x].ok and values[x].value["value"] == float(x)

    def test_flaky_cell_retried_in_pool(self, tmp_path):
        outcomes = run_cells(
            fail_once_marker,
            specs_for([1, 2, 3], extra={"marker_dir": str(tmp_path)}),
            workers=WORKERS,
        )
        assert all(o.ok for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)

    def test_hard_exit_yields_crash_error_and_pool_survives(self):
        outcomes = run_cells(
            exit_on_two, specs_for([0, 1, 2, 3, 4]), workers=WORKERS
        )
        values = {o.spec.params["x"]: o for o in outcomes}
        err = values[2].error
        assert isinstance(err, CellError)
        assert err.kind == "crash"
        assert err.exc_type == "WorkerCrash"
        assert err.attempts == 2  # one attributed crash + one retry
        # Every innocent cell still completed despite the broken pool.
        for x in (0, 1, 3, 4):
            assert values[x].ok and values[x].value["value"] == float(x)

    def test_cell_error_message_names_the_cell(self):
        outcomes = run_cells(raise_on_two, specs_for([2]), workers=2)
        message = str(outcomes[0].error)
        assert "cell 0" in message
        assert "ValueError" in message


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_cells(square, specs_for([1]), workers=0)

    def test_retries_must_be_non_negative(self):
        with pytest.raises(ValueError):
            run_cells(square, specs_for([1]), retries=-1)

    def test_empty_specs_is_empty_result(self):
        assert run_cells(square, []) == []
