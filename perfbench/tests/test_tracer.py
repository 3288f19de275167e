"""The tracer's self-time arithmetic and its exact restoration of patches."""

import importlib

import pytest
from repro import DataCenterSimulation

from perfbench import worker
from perfbench.tracer import BOUNDARIES, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("cluster.server", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0

    traced_middle = tracer.wrap("network.load_balancer", middle)

    with tracer.root():
        clock.now += 0.5
        with tracer.span("sim.engine"):
            clock.now += 3.0
            traced_middle()
            with tracer.excluded():
                clock.now += 4.0
            traced_leaf()
        clock.now += 0.25

    times = tracer.layer_times()
    assert times["cluster.server"] == (4.0, 2)
    assert times["network.load_balancer"] == (2.0, 1)
    assert times["sim.engine"] == (3.0, 1)
    assert tracer.excluded_s == 4.0
    assert tracer.unattributed_s == 0.75
    assert tracer.root_s == 13.75
    total = sum(self_s for self_s, _ in times.values())
    assert total + tracer.unattributed_s + tracer.excluded_s == tracer.root_s


def test_span_that_raises_still_closes():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("boom")

    traced = tracer.wrap("workloads", boom)
    with tracer.root():
        with pytest.raises(ValueError):
            traced()
        clock.now += 2.0
    assert tracer.layer_times()["workloads"] == (1.0, 1)
    assert tracer.unattributed_s == 2.0


def _boundary_attrs():
    attrs = {}
    for _, module, class_name, methods in BOUNDARIES:
        cls = getattr(importlib.import_module(module), class_name)
        for method in methods:
            attrs[(cls, method)] = cls.__dict__.get(method)
    # The region sweep patches this one for its own checks.
    attrs[(DataCenterSimulation, "run")] = DataCenterSimulation.__dict__["run"]
    return attrs


def _same(a, b):
    return a.keys() == b.keys() and all(a[key] is b[key] for key in a)


def test_patched_methods_restored_exactly():
    before = _boundary_attrs()
    tracer = Tracer()
    tracer.install()
    try:
        patched = _boundary_attrs()
    finally:
        tracer.uninstall()
    changed = {key for key in before if patched[key] is not before[key]}
    assert changed == set(before) - {(DataCenterSimulation, "run")}
    assert _same(_boundary_attrs(), before)

    # A timed run wraps PowerMeter.sample for its slices, and restores it.
    for mode in ("traced", "timed"):
        record = worker.execute("region-sweep-detect", 7, 0.05, mode)
        assert record["ok"], record["errors"]
        assert _same(_boundary_attrs(), before)
