"""Unit tests for the rack aggregate."""

import pytest

from repro.cluster import Rack
from repro.network import Request
from repro.workloads import COLLA_FILT, TrafficClass


class TestAggregation:
    def test_paper_rack_nameplate(self, rack):
        assert rack.nameplate_w == pytest.approx(400.0)

    def test_total_power_is_sum_of_servers(self, rack):
        assert rack.total_power() == pytest.approx(
            sum(s.current_power() for s in rack.servers)
        )

    def test_idle_rack_power(self, rack):
        assert rack.total_power() == pytest.approx(4 * 38.0)

    def test_idle_floor_matches_total_when_empty(self, rack):
        assert rack.idle_floor() == pytest.approx(rack.total_power())

    def test_idle_floor_leaves_out_servers_that_are_down(self, rack):
        # The crash rule of Server.power_at_level: a crashed or
        # powered-off server draws 0 W, so the floor is the 3 survivors'.
        rack.servers[0].fail()
        assert rack.idle_floor() == rack.total_power() == 3 * 38.0
        rack.servers[1].set_powered(False)
        assert rack.idle_floor() == rack.total_power() == 2 * 38.0
        rack.servers[0].recover()
        assert rack.idle_floor() == rack.total_power() == 3 * 38.0

    def test_total_in_system(self, engine, rack):
        rack.servers[0].submit(Request(COLLA_FILT, 0, TrafficClass.NORMAL, 0.0))
        rack.servers[2].submit(Request(COLLA_FILT, 1, TrafficClass.NORMAL, 0.0))
        assert rack.total_in_system() == 2

    def test_total_energy_sums_servers(self, engine, rack):
        engine.schedule(5.0, lambda: None)
        engine.run()
        assert rack.total_energy_joules() == pytest.approx(4 * 38.0 * 5.0)


class TestBulkDVFS:
    def test_set_all_levels(self, rack):
        rack.set_all_levels(3)
        assert rack.levels() == [3, 3, 3, 3]

    def test_mean_freq(self, rack):
        rack.set_all_levels(0)
        assert [s.frequency_ghz for s in rack.servers] == pytest.approx([1.2] * 4)


class TestDeterminism:
    def test_server_seeds_deterministic(self, engine, collector):
        import numpy as np

        r1 = Rack(engine, rng=np.random.default_rng(9))
        r2 = Rack(engine, rng=np.random.default_rng(9))
        s1 = [float(s.rng.random()) for s in r1.servers]
        s2 = [float(s.rng.random()) for s in r2.servers]
        assert s1 == s2

    def test_servers_have_distinct_streams(self, rack):
        draws = [float(s.rng.random()) for s in rack.servers]
        assert len(set(draws)) == len(draws)


class TestValidation:
    def test_zero_servers_rejected(self, engine):
        with pytest.raises(ValueError):
            Rack(engine, num_servers=0)
