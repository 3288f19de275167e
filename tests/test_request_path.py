"""Pins for the request path's per-server and per-epoch caches.

The request path (generator → NLB → policy → server → completion)
caches values that only change on rare events, and writes a few lookups
out without the call that used to make them.  Each test here pins one
such shortcut to what it replaces, or exercises the event that must
invalidate a cache:

* the server's cached slot lookup keeps the registry's duplicate-name
  check;
* ``PDFPolicy`` classifies exactly as ``SuspectList.is_suspect``;
* the closed-loop terminal callback, built once per epoch, still stops
  requests of an earlier epoch from re-issuing after a restart;
* the feature extractor prices each type once.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Server, ServerPowerModel
from repro.core import PDFPolicy, SuspectList
from repro.detect.features import StreamingFeatureExtractor
from repro.network import SourceRegistry
from repro.network.request import Request, RequestOutcome
from repro.sim import EventEngine
from repro.workloads.catalog import (
    ALL_TYPES,
    COLLA_FILT,
    TEXT_CONT,
    RequestType,
    TrafficClass,
)
from repro.workloads.generator import ClosedLoopGenerator


def _start(server: Server, rtype: RequestType, request_id: int) -> None:
    request = Request(rtype, 0, TrafficClass.NORMAL, server.engine.now, request_id)
    assert server.submit(request)


# ----------------------------------------------------------------------
# The server's cached slot lookup keeps the registry's checks
# ----------------------------------------------------------------------
def test_equal_type_object_shares_the_slot():
    server = Server(0, EventEngine(), np.random.default_rng(0))
    _start(server, COLLA_FILT, 0)
    twin = replace(COLLA_FILT)
    assert twin is not COLLA_FILT and twin == COLLA_FILT
    _start(server, twin, 1)
    assert server._counts == [2]


def test_different_type_under_a_known_name_is_rejected():
    server = Server(0, EventEngine(), np.random.default_rng(0))
    _start(server, COLLA_FILT, 0)
    impostor = replace(COLLA_FILT, power_intensity=0.5)
    with pytest.raises(ValueError, match="re-registered"):
        _start(server, impostor, 1)


# ----------------------------------------------------------------------
# PDFPolicy classifies as SuspectList.is_suspect
# ----------------------------------------------------------------------
_UNPROFILED = RequestType(
    name="unprofiled",
    url="/api/unprofiled",
    base_service_s=0.05,
    cpu_boundness=0.5,
    power_intensity=1.0,
    freq_sensitivity=0.5,
)


@pytest.mark.parametrize(
    "suspect_list",
    [
        SuspectList.from_model(ALL_TYPES, ServerPowerModel()),
        SuspectList.from_measurements(
            [(t.url, 100.0 * t.power_intensity) for t in ALL_TYPES], 100.0, 0.5
        ),
    ],
    ids=["model", "measured"],
)
def test_pdf_classifies_as_the_suspect_list(suspect_list):
    engine = EventEngine()
    servers = [Server(i, engine, np.random.default_rng(i)) for i in range(4)]
    policy = PDFPolicy(suspect_list, servers, suspect_pool_size=1)
    for rtype in ALL_TYPES + (_UNPROFILED,):
        request = Request(rtype, 0, TrafficClass.NORMAL, 0.0, 0)
        chosen = policy.select(request, servers)
        in_suspect_pool = chosen in policy.suspect_pool.members
        assert in_suspect_pool == suspect_list.is_suspect(rtype.url), rtype.name


# ----------------------------------------------------------------------
# Closed loop: the per-epoch terminal callback
# ----------------------------------------------------------------------
class _HoldingDispatch:
    """Accepts every request and holds it until the test terminates it."""

    def __init__(self) -> None:
        self.held = []

    def __call__(self, request: Request) -> bool:
        self.held.append(request)
        return True

    def terminate(self, request: Request, now: float) -> None:
        self.held.remove(request)
        request.on_terminal(request, RequestOutcome.COMPLETED, now)


def test_closed_loop_restart_does_not_reissue_earlier_epoch():
    engine = EventEngine()
    dispatch = _HoldingDispatch()
    pool = SourceRegistry().allocate("cl", TrafficClass.ATTACK, 3)
    gen = ClosedLoopGenerator(
        engine, dispatch, np.random.default_rng(1), pool, TEXT_CONT,
        num_clients=3, think_s=0.05,
    )
    gen.start()
    engine.run(until=1.0)
    first_epoch = list(dispatch.held)
    assert len(first_epoch) == 3 and gen.generated == 3

    gen.stop()
    gen.start()
    engine.run(until=2.0)
    assert gen.generated == 6  # a fresh client pool
    # Epoch-1 requests terminating now must not bring their clients back.
    for request in first_epoch:
        dispatch.terminate(request, engine.now)
    engine.run(until=3.0)
    assert gen.generated == 6
    assert len(dispatch.held) <= gen.num_clients

    # An epoch-2 terminal re-issues after its think time.
    dispatch.terminate(dispatch.held[0], engine.now)
    engine.run(until=4.0)
    assert gen.generated == 7
    assert len(dispatch.held) <= gen.num_clients


def test_closed_loop_terminal_callback_is_shared_within_an_epoch():
    engine = EventEngine()
    dispatch = _HoldingDispatch()
    pool = SourceRegistry().allocate("cl", TrafficClass.ATTACK, 4)
    gen = ClosedLoopGenerator(
        engine, dispatch, np.random.default_rng(2), pool, TEXT_CONT, num_clients=4
    )
    gen.start()
    engine.run(until=1.0)
    callbacks = {id(r.on_terminal) for r in dispatch.held}
    assert len(callbacks) == 1


# ----------------------------------------------------------------------
# Feature extractor: one energy price per type name
# ----------------------------------------------------------------------
def test_extractor_prices_each_type_once():
    calls = []

    def energy_of(rtype):
        calls.append(rtype.name)
        return 2.0 * rtype.base_service_s

    tau_s = 10.0
    extractor = StreamingFeatureExtractor(ALL_TYPES, tau_s=tau_s, energy_of=energy_of)
    for i in range(50):
        rtype = ALL_TYPES[i % len(ALL_TYPES)]
        extractor.observe_completion(i % 3, rtype, 0.0)
    assert sorted(calls) == sorted(t.name for t in ALL_TYPES)
    for source in range(3):
        energy_j = sum(
            2.0 * ALL_TYPES[i % len(ALL_TYPES)].base_service_s
            for i in range(50)
            if i % 3 == source
        )
        power_w = extractor.features(source, 0.0).power_w
        assert math.isclose(power_w, energy_j / tau_s)
