"""Memoised server watts equal ``power_from_counts`` exactly.

A rack's :class:`PowerEvalTable` memoises, per DVFS level, the watts of
every busy-count vector its servers have been in, keyed by the vector
packed as ``Σ counts[slot] · (W + 1) ** slot``.  A server reads the memo
on every refresh of its cached power and calls
:meth:`ServerPowerModel.power_from_counts` only on a miss.  These tests
drive real servers through every busy-count vector a server can hold
(each slot 0…W, at most W busy in all) at every level, through DVFS
changes, crashes and recoveries, and a type another server registers
mid-run, and require each read to be the very float the uncached
evaluation gives.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.cluster import FrequencyLadder, Server, ServerPowerModel
from repro.cluster.power_model import PowerEvalTable
from repro.network.request import Request
from repro.sim import EventEngine
from repro.workloads.catalog import ALL_TYPES, TrafficClass


def _bits(value: float) -> str:
    return float(value).hex()


class _Driver:
    """Moves one server between busy-count vectors with real requests.

    Requests never finish on their own (the engine is not run); the
    driver ends one by calling the server's completion callback, as the
    engine would.
    """

    def __init__(self, server: Server, types) -> None:
        self.server = server
        self.types = types
        self.held = [[] for _ in types]
        self.next_id = 0

    def reach(self, target) -> None:
        for held, want in zip(self.held, target):
            while len(held) > want:
                self.server._finish(held.pop())
        for rtype, held, want in zip(self.types, self.held, target):
            while len(held) < want:
                request = Request(
                    rtype, 0, TrafficClass.NORMAL, 0.0, self.next_id
                )
                self.next_id += 1
                assert self.server.submit(request)
                held.append(request)

    def forget(self) -> None:
        """Drop the held requests (the server crashed and lost them)."""
        self.held = [[] for _ in self.types]


def _uncached(table: PowerEvalTable, counts, level: int) -> float:
    return table.model.power_from_counts(
        counts, table.factor_row(level), table.idle_power_at(level)
    )


def _decode(code: int, base: int, width: int):
    digits = []
    for _ in range(width):
        code, digit = divmod(code, base)
        digits.append(digit)
    assert code == 0
    return digits


def _vectors(num_workers: int, num_types: int):
    """Every busy-count vector one server can hold, in product order."""
    return [
        v
        for v in itertools.product(range(num_workers + 1), repeat=num_types)
        if sum(v) <= num_workers
    ]


def _rack(num_servers: int, model=None, ladder=None):
    model = model or ServerPowerModel()
    ladder = ladder or FrequencyLadder()
    table = PowerEvalTable(model, ladder)
    engine = EventEngine()
    servers = [
        Server(
            i,
            engine,
            np.random.default_rng(i),
            power_model=model,
            ladder=ladder,
            queue_capacity=0,
            eval_table=table,
        )
        for i in range(num_servers)
    ]
    return engine, table, servers


def test_every_vector_at_every_level_reads_the_uncached_watts():
    engine, table, (server,) = _rack(1)
    types = ALL_TYPES
    for rtype in types:  # slots in catalog order
        table.slot_of(rtype)
    workers = server.num_workers
    driver = _Driver(server, types)
    levels = list(range(server.ladder.max_level + 1))
    vectors = _vectors(workers, len(types))
    for i, vector in enumerate(vectors):
        driver.reach(vector)
        # Every level in turn, with the vector's requests in service.
        for level in levels if i % 2 == 0 else levels[::-1]:
            server.set_level(level)
            assert _bits(server.current_power()) == _bits(
                _uncached(table, vector, level)
            )
    # Each memo entry is the uncached float of the vector it packs, and
    # the memo holds exactly the vectors visited: C(W + T, T) per level.
    for level in levels:
        memo = table.watts_memo(level)
        assert len(memo) == math.comb(workers + len(types), len(types))
        for code, power_w in memo.items():
            counts = _decode(code, workers + 1, len(types))
            assert _bits(power_w) == _bits(_uncached(table, counts, level))


def test_one_eval_count_per_refresh_hit_or_miss():
    engine, table, (server,) = _rack(1)
    counters = engine.obs.counters
    driver = _Driver(server, ALL_TYPES[:2])
    refreshes = 0
    previous = (0, 0)  # a fresh server is idle and clean
    # The walk visits each vector twice: misses first, then hits.
    for vector in _vectors(3, 2) * 2:
        driver.reach(vector)
        server.current_power()
        server.current_power()  # clean: no refresh
        refreshes += vector != previous
        previous = vector
        assert counters.get("cluster.power_model_evals") == refreshes
    assert refreshes == 2 * len(_vectors(3, 2)) - 1


def test_crash_and_recovery_reset_the_packed_counts():
    engine, table, (server,) = _rack(1)
    types = ALL_TYPES[:3]
    for rtype in types:
        table.slot_of(rtype)
    driver = _Driver(server, types)
    for vector in [(2, 1, 0), (0, 3, 4), (8, 0, 0), (1, 1, 1)]:
        for level in (server.ladder.max_level, 0, 5):
            server.set_level(level)
            driver.reach(vector)
            assert _bits(server.current_power()) == _bits(
                _uncached(table, vector, level)
            )
            server.fail()
            driver.forget()
            assert server.current_power() == 0.0
            server.recover()
            assert _bits(server.current_power()) == _bits(
                _uncached(table, [0, 0, 0], level)
            )
            assert server.current_power() == table.idle_power_at(level)


def test_a_type_registered_by_another_server_mid_run():
    engine, table, (a, b) = _rack(2)
    t0, t1, t2, t3 = ALL_TYPES[:4]
    level = a.level
    drive_a = _Driver(a, [t0, t1, t2, t3])
    drive_b = _Driver(b, [t0, t1, t2, t3])
    drive_a.reach([1, 1])
    assert a._counts == [1, 1]
    a_power_w = a.current_power()
    assert _bits(a_power_w) == _bits(_uncached(table, [1, 1], level))
    # b registers slot 2; a's vector is now one slot shorter than b's.
    drive_b.reach([0, 0, 2])
    assert len(table.registry) == 3 and a._counts == [1, 1]
    assert _bits(b.current_power()) == _bits(_uncached(table, [0, 0, 2], level))
    # b's (1, 1, 0) packs like a's (1, 1): the memo hit is a's float,
    # which is also the uncached float of the longer vector.
    drive_b.reach([1, 1, 0])
    entries = len(table.watts_memo(level))
    assert _bits(b.current_power()) == _bits(a_power_w)
    assert _bits(a_power_w) == _bits(_uncached(table, [1, 1, 0], level))
    assert len(table.watts_memo(level)) == entries
    # a then starts the new type and one more (slot 3): its counts grow.
    drive_a.reach([1, 1, 1, 1])
    assert a._counts == [1, 1, 1, 1]
    assert _bits(a.current_power()) == _bits(
        _uncached(table, [1, 1, 1, 1], level)
    )
    drive_a.reach([0, 1, 0, 1])
    drive_b.reach([0, 1, 0, 1])
    assert _bits(a.current_power()) == _bits(b.current_power())
    assert _bits(a.current_power()) == _bits(
        _uncached(table, [0, 1, 0, 1], level)
    )


@pytest.mark.parametrize("level", [-1, 13, 99])
def test_memo_accessor_rejects_levels_off_the_ladder(level):
    table = PowerEvalTable(ServerPowerModel(), FrequencyLadder())
    with pytest.raises(ValueError, match="outside ladder"):
        table.watts_memo(level)
