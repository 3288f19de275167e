"""Unit tests for source pools and the registry."""

import pytest

from repro.network import SourcePool, SourceRegistry
from repro.workloads import TrafficClass


class TestSourcePool:
    def test_id_block(self):
        pool = SourcePool("bots", TrafficClass.ATTACK, size=5, first_id=10)
        assert list(pool.ids) == [10, 11, 12, 13, 14]
        assert len(pool) == 5

    def test_contains(self):
        pool = SourcePool("bots", TrafficClass.ATTACK, size=3, first_id=4)
        assert pool.contains(4)
        assert pool.contains(6)
        assert not pool.contains(3)
        assert not pool.contains(7)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourcePool("", TrafficClass.NORMAL, 1, 0)
        with pytest.raises(ValueError):
            SourcePool("x", TrafficClass.NORMAL, 0, 0)


class TestSourceRegistry:
    def test_blocks_do_not_overlap(self):
        reg = SourceRegistry()
        a = reg.allocate("users", TrafficClass.NORMAL, 100)
        b = reg.allocate("bots", TrafficClass.ATTACK, 50)
        assert set(a.ids).isdisjoint(set(b.ids))
        assert sum(pool.size for pool in reg.pools) == 150

    def test_get_by_label(self):
        reg = SourceRegistry()
        pool = reg.allocate("alios", TrafficClass.NORMAL, 3)
        assert reg.get("alios") is pool
        with pytest.raises(KeyError):
            reg.get("nope")

    def test_duplicate_label_rejected(self):
        reg = SourceRegistry()
        reg.allocate("x", TrafficClass.NORMAL, 1)
        with pytest.raises(ValueError):
            reg.allocate("x", TrafficClass.NORMAL, 1)

    def test_pools_listing_in_order(self):
        reg = SourceRegistry()
        reg.allocate("a", TrafficClass.NORMAL, 1)
        reg.allocate("b", TrafficClass.ATTACK, 1)
        assert [p.label for p in reg.pools] == ["a", "b"]
