"""The request path's RNG call forms draw exactly what numpy's named calls draw.

The server's service noise, the jittered constant-rate arrivals and the
closed-loop clients' launch offsets draw through the cheapest numpy
calls numpy itself defines as identical to the named distributions:

* ``math.exp(mu + sigma * rng.standard_normal())``
                                           for ``rng.lognormal(mu, sigma)``;
* ``lo + (hi - lo) * rng.random()``        for ``rng.uniform(lo, hi)``.

numpy's C distributions compute each named call as exactly that
expression, so the values and the bit-generator's consumption agree.
The server draws its standard normals in blocks, which numpy fills with
the same per-element draw as scalar calls.
Every golden table and digest rests on this, so a numpy release that
broke it must fail here rather than silently move those outputs.

The draws interleave both forms on one stream, with the parameters the
workloads use: each catalog type's service-noise ``(mu, sigma)``,
±0.05 jitter, and the closed loop's launch spread for a 0.2 s think
time.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster import Server
from repro.network import SourceRegistry
from repro.network.request import Request
from repro.sim import EventEngine
from repro.trace.arrival import ConstantRateProcess
from repro.workloads.catalog import ALL_TYPES, TEXT_CONT, TrafficClass
from repro.workloads.generator import ClosedLoopGenerator

SEEDS = (0, 7, 11, 2**40 + 3)
DRAWS_PER_SEED = 30_000  # 120k interleaved draws over the four seeds

THINK_S = 0.2
LOGNORMAL_PARAMS = tuple((t._ln_mu, t._ln_sigma) for t in ALL_TYPES)
JITTER = 0.05
UNIFORM_BOUNDS = ((-JITTER, JITTER), (0.0, max(THINK_S, 0.05)))


def _bits(value: float) -> str:
    return float(value).hex()


def _named(rng: np.random.Generator, kind: int, arg):
    if kind == 0:
        return rng.lognormal(arg[0], arg[1])
    return rng.uniform(arg[0], arg[1])


def _direct(rng: np.random.Generator, kind: int, arg):
    if kind == 0:
        return math.exp(arg[0] + arg[1] * rng.standard_normal())
    low, high = arg
    return low + (high - low) * rng.random()


_ARGS = (LOGNORMAL_PARAMS, UNIFORM_BOUNDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_forms_equal_named_calls_bit_for_bit(seed):
    schedule = np.random.default_rng(seed + 1)
    kinds = schedule.integers(0, len(_ARGS), size=DRAWS_PER_SEED)
    picks = schedule.integers(0, 1 << 16, size=DRAWS_PER_SEED)
    named = np.random.default_rng(seed)
    direct = np.random.default_rng(seed)
    mismatches = []
    for kind, pick in zip(kinds.tolist(), picks.tolist()):
        options = _ARGS[kind]
        arg = options[pick % len(options)]
        a = _named(named, kind, arg)
        b = _direct(direct, kind, arg)
        if type(a) is not float or type(b) is not float or _bits(a) != _bits(b):
            mismatches.append((kind, arg, a, b))
    assert mismatches == []
    assert named.bit_generator.state == direct.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_block_normals_equal_scalar_draws(seed):
    """``standard_normal(n)`` is *n* scalar draws: same values, same state.

    The server takes its service noise from blocks of normals, so each
    request's work rests on this.
    """
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (1, 7, 256, 1000):
        values = block.standard_normal(n).tolist()
        expected = [scalar.standard_normal() for _ in range(n)]
        assert all(type(v) is float for v in values + expected)
        assert [_bits(v) for v in values] == [_bits(v) for v in expected]
        assert block.bit_generator.state == scalar.bit_generator.state


# ----------------------------------------------------------------------
# The call sites: each draws what the named call would have drawn.
# ----------------------------------------------------------------------
def _gaps(process, rng, n=2000):
    return [_bits(process.next_interarrival(rng, 0.01 * i)) for i in range(n)]


def test_jittered_constant_rate_gaps():
    rate = 220.0
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    expected = [
        _bits((1.0 / rate) * (1.0 + float(ref.uniform(-JITTER, JITTER))))
        for _ in range(2000)
    ]
    assert _gaps(ConstantRateProcess(rate, JITTER), rng) == expected
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("rtype", ALL_TYPES, ids=lambda t: t.name)
def test_server_service_work(rtype):
    """Each started request's work is ``base * rng.lognormal(mu, sigma)``.

    The server draws its normals :data:`SERVICE_NOISE_BLOCK` at a time,
    so after 500 requests its stream sits at the next block boundary:
    the reference skips the rest of the block before the states compare.
    """
    from repro.cluster.server import SERVICE_NOISE_BLOCK

    engine = EventEngine()
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    server = Server(0, engine, rng, queue_capacity=0)
    requests = 500
    works, expected = [], []
    for i in range(requests):
        request = Request(rtype, 0, TrafficClass.NORMAL, engine.now, i)
        assert server.submit(request)
        works.append(_bits(request.remaining_work))
        expected.append(
            _bits(
                rtype.base_service_s
                * float(ref.lognormal(mean=rtype._ln_mu, sigma=rtype._ln_sigma))
            )
        )
        engine.run()  # finish it, so the next one starts at once
    assert works == expected
    ref.standard_normal(-requests % SERVICE_NOISE_BLOCK)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_closed_loop_launch_offsets():
    """Each client's first send is ``rng.uniform(0, spread)`` after launch."""
    engine = EventEngine()
    rng, ref = np.random.default_rng(19), np.random.default_rng(19)
    pool = SourceRegistry().allocate("cl", TrafficClass.NORMAL, 50)
    gen = ClosedLoopGenerator(
        engine, lambda r: True, rng, pool, TEXT_CONT, num_clients=50, think_s=THINK_S
    )
    gen.start()
    engine.run(until=0.0)  # the launch only
    sends = sorted(entry[0] for entry in engine._queue._heap)
    spread = max(THINK_S, 0.05)
    expected = sorted(float(ref.uniform(0.0, spread)) for _ in range(50))
    assert [_bits(t) for t in sends] == [_bits(t) for t in expected]
    assert rng.bit_generator.state == ref.bit_generator.state
