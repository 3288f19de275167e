"""Unit tests for the discrete-event engine."""

import sys
from pathlib import Path

import pytest

from repro.sim.engine import (
    ENGINE_SELECT_ENV,
    engine_from_env,
    resolve_engine_selection,
)


class TestScheduling:
    def test_schedule_relative(self, engine):
        fired = []
        engine.schedule(2.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [2.0]

    def test_schedule_absolute(self, engine):
        fired = []
        engine.schedule_at(5.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [5.0]

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError, match="past"):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_cancel_prevents_dispatch(self, engine):
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        engine.cancel(event)
        engine.run()
        assert fired == []


class TestRun:
    def test_run_until_stops_clock_at_deadline(self, engine):
        engine.schedule(10.0, lambda: None)
        end = engine.run(until=4.0)
        assert end == 4.0
        assert engine.pending() == 1

    def test_events_at_deadline_execute(self, engine):
        fired = []
        engine.schedule(4.0, lambda: fired.append(1))
        engine.run(until=4.0)
        assert fired == [1]

    def test_run_drains_queue_without_deadline(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        engine.run()
        assert engine.pending() == 0
        assert engine.dispatched == 3

    def test_clock_advances_to_deadline_when_queue_drains(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_sequential_runs_continue(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.run(until=2.0)
        assert fired == ["a"]
        engine.run(until=10.0)
        assert fired == ["a", "b"]

    def test_reentrant_run_rejected(self, engine):
        def bad():
            engine.run()

        engine.schedule(1.0, bad)
        with pytest.raises(RuntimeError, match="re-entrant"):
            engine.run()

    def test_stop_halts_dispatch(self, engine):
        fired = []

        def first():
            fired.append(1)
            engine.stop()

        engine.schedule(1.0, first)
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_events_scheduled_during_run_execute(self, engine):
        fired = []

        def outer():
            engine.schedule(1.0, lambda: fired.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert fired == ["inner"]
        assert engine.now == 2.0


class TestRunDeadline:
    """A deadline the clock can never reach, or has passed, is rejected.

    NaN used to mean "no deadline" (``time_s > nan`` is always false),
    so a run with a recurring control loop never stopped; a past
    deadline raised from the clock with events queued and returned
    silently with none.  Each case must raise before dispatching.
    """

    @pytest.mark.parametrize("until", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_until_rejected_and_queue_untouched(self, engine, until):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(ValueError, match="finite"):
            engine.run(until=until)
        assert fired == []
        assert engine.pending() == 1
        assert engine.now == 0.0
        assert engine.obs.counters.get("engine.run_calls") == 0

    def test_past_until_rejected_with_events_queued(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        engine.run(until=2.0)
        with pytest.raises(ValueError, match="no earlier than now"):
            engine.run(until=1.5)
        assert engine.now == 2.0
        assert engine.pending() == 1

    def test_past_until_rejected_with_empty_queue(self, engine):
        engine.run(until=3.0)
        with pytest.raises(ValueError, match="no earlier than now"):
            engine.run(until=2.0)
        assert engine.now == 3.0

    def test_until_equal_to_now_is_a_no_op_run(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=0.0)
        assert engine.now == 0.0
        assert engine.pending() == 1

    def test_engine_usable_after_rejected_deadline(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(engine.now))
        with pytest.raises(ValueError):
            engine.run(until=float("nan"))
        engine.run(until=2.0)
        assert fired == [1.0]


class TestPending:
    """``pending()`` counts live events however they were cancelled."""

    def test_event_handle_cancel_is_counted(self, engine):
        engine.schedule(1.0, lambda: None)
        event = engine.schedule(2.0, lambda: None)
        event.cancel()  # Server.set_level/fail and generator stop use this
        assert engine.pending() == 1
        engine.run()
        assert engine.pending() == 0

    def test_recurrence_stopping_itself_in_its_tick(self, engine):
        engine.schedule(10.0, lambda: None)
        holder = {}
        holder["stop"] = engine.every(1.0, lambda: holder["stop"]())
        engine.run(until=2.0)
        assert engine.pending() == 1

    def test_cancel_twice_and_after_dispatch(self, engine):
        fired = engine.schedule(1.0, lambda: None)
        live = engine.schedule(5.0, lambda: None)
        engine.run(until=2.0)
        engine.cancel(fired)  # already dispatched: no effect on the count
        assert engine.pending() == 1
        engine.cancel(live)
        engine.cancel(live)
        assert engine.pending() == 0


class TestEvery:
    def test_recurrence_fires_at_interval(self, engine):
        fired = []
        engine.every(2.0, lambda: fired.append(engine.now))
        engine.run(until=7.0)
        assert fired == [2.0, 4.0, 6.0]

    def test_start_delay_overrides_first_interval(self, engine):
        fired = []
        engine.every(5.0, lambda: fired.append(engine.now), start_delay_s=1.0)
        engine.run(until=12.0)
        assert fired == [1.0, 6.0, 11.0]

    def test_stop_function_cancels(self, engine):
        fired = []
        stop = engine.every(1.0, lambda: fired.append(engine.now))
        engine.schedule(3.5, stop)
        engine.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_from_inside_callback(self, engine):
        fired = []
        holder = {}

        def cb():
            fired.append(engine.now)
            if len(fired) == 2:
                holder["stop"]()

        holder["stop"] = engine.every(1.0, cb)
        engine.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_zero_interval_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.every(0.0, lambda: None)


# ----------------------------------------------------------------------
# Engine selection (REPRO_BENCH_ENGINE)
# ----------------------------------------------------------------------


def test_engine_from_env_selects_engine(monkeypatch):
    monkeypatch.delenv(ENGINE_SELECT_ENV, raising=False)
    assert engine_from_env(default="fluid") == "fluid"
    for name in ("scalar", "batched", "fluid"):
        monkeypatch.setenv(ENGINE_SELECT_ENV, name)
        assert engine_from_env(default="fluid") == name
    monkeypatch.setenv(ENGINE_SELECT_ENV, "Batched ")
    assert engine_from_env(default="fluid") == "batched"
    monkeypatch.setenv(ENGINE_SELECT_ENV, "turbo")
    with pytest.raises(ValueError, match="REPRO_BENCH_ENGINE"):
        engine_from_env(default="fluid")

    assert resolve_engine_selection("scalar") == ("scalar", False)
    assert resolve_engine_selection("batched") == ("batched", False)
    assert resolve_engine_selection("fluid") == ("batched", True)
    with pytest.raises(ValueError, match="engine"):
        resolve_engine_selection("turbo")


def test_support_runner_follows_engine_env_var(monkeypatch):
    sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
    try:
        import _support
    finally:
        sys.path.pop(0)

    monkeypatch.setenv(ENGINE_SELECT_ENV, "scalar")
    sim = _support.run_attack_scenario(duration=5.0, attack=False)
    assert sim.engine.mode == "scalar" and not sim.engine.fluid
    monkeypatch.setenv(ENGINE_SELECT_ENV, "fluid")
    sim = _support.run_attack_scenario(duration=5.0, attack=False)
    assert sim.engine.mode == "batched" and sim.engine.fluid
    # An explicit argument wins over the environment.
    sim = _support.run_attack_scenario(duration=5.0, attack=False, engine="batched")
    assert sim.engine.mode == "batched" and not sim.engine.fluid
