"""Unit tests for the Capping scheme (DVFS-only, Table 2 row 1)."""

import pytest

from repro.network import Request
from repro.power import CappingScheme, PowerBudget
from repro.workloads import COLLA_FILT, K_MEANS, TrafficClass


def load_rack(rack, rtype=COLLA_FILT, per_server=8):
    for s in rack.servers:
        for i in range(per_server):
            s.submit(Request(rtype, i, TrafficClass.ATTACK, 0.0))


def bind(scheme, engine, rack, supply_w, battery=None, slot=1.0):
    scheme.bind(engine, rack, PowerBudget(supply_w), battery, slot)
    return scheme


class TestCappingStep:
    def test_no_action_within_budget(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=400.0)
        scheme.step()
        assert rack.levels() == [12] * 4

    def test_throttles_to_fit_budget(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=320.0)
        load_rack(rack)  # full Colla-Filt load: 400 W at nominal
        scheme.step()
        assert rack.total_power() <= 320.0
        assert all(level < 12 for level in rack.levels())

    def test_chooses_highest_fitting_level(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=320.0)
        load_rack(rack)
        scheme.step()
        level = rack.levels()[0]
        # One level higher must violate the budget.
        assert scheme.predict_power_at_level(level + 1) > 320.0

    def test_uniform_across_servers(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=300.0)
        load_rack(rack)
        scheme.step()
        assert len(set(rack.levels())) == 1

    def test_recovers_when_load_drops(self, engine, rack, collector):
        scheme = bind(CappingScheme(), engine, rack, supply_w=320.0)
        load_rack(rack)
        scheme.step()
        throttled = rack.levels()[0]
        engine.run(until=60.0)  # all requests finish
        scheme.step()
        assert rack.levels()[0] > throttled
        assert rack.levels() == [12] * 4

    def test_memory_bound_load_needs_deeper_throttle(self, engine, rack, rng):
        # Fig 6b: K-means' frequency-insensitive power forces lower V/F
        # for the same budget.
        s1 = bind(CappingScheme(), engine, rack, supply_w=330.0)
        load_rack(rack, COLLA_FILT)
        s1.step()
        cf_level = rack.levels()[0]

        from repro.cluster import Rack
        import numpy as np

        rack2 = Rack(engine, num_servers=4, rng=np.random.default_rng(0))
        s2 = bind(CappingScheme(), engine, rack2, supply_w=330.0)
        load_rack(rack2, K_MEANS)
        s2.step()
        km_level = rack2.levels()[0]
        assert km_level < cf_level

    def test_idle_floor_dominated_budget_goes_to_bottom(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=100.0)
        load_rack(rack)
        scheme.step()
        assert rack.levels() == [0] * 4


class TestHysteresis:
    def test_no_chatter_at_boundary(self, engine, rack, collector):
        """A load sitting exactly at the cap must not oscillate between
        adjacent levels on successive slots."""
        scheme = bind(CappingScheme(), engine, rack, supply_w=345.0)
        load_rack(rack)
        levels = []
        for _ in range(6):
            scheme.step()
            levels.append(rack.levels()[0])
        assert len(set(levels[1:])) == 1

    def test_invalid_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            CappingScheme(hysteresis=0.6)


class TestBinding:
    def test_step_before_bind_rejected(self):
        with pytest.raises(RuntimeError):
            CappingScheme().step()

    def test_double_bind_rejected(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=400.0)
        with pytest.raises(RuntimeError):
            scheme.bind(engine, rack, PowerBudget(400.0), None, 1.0)

    def test_no_nlb_hooks(self, engine, rack):
        scheme = bind(CappingScheme(), engine, rack, supply_w=400.0)
        assert scheme.forwarding_policy() is None
        assert scheme.admission_filter() is None


class TestLocalCapping:
    def test_each_server_fits_its_share(self, engine, rack):
        from repro.power import LocalCappingScheme

        scheme = LocalCappingScheme()
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        load_rack(rack)
        scheme.step()
        share = 320.0 / 4
        for server in rack.servers:
            assert server.current_power() <= share + 1e-6

    def test_power_fragmentation_strands_headroom(self, engine, rack, rng):
        """One hot server next to three idle ones: local capping
        throttles the hot one to its 1/4 share even though the rack as
        a whole is far below budget — the stranded-headroom pathology
        a global controller avoids."""
        import numpy as np

        from repro.cluster import Rack
        from repro.power import LocalCappingScheme

        def hot_server_level(scheme_cls):
            r = Rack(engine, num_servers=4, rng=np.random.default_rng(0))
            scheme = scheme_cls()
            scheme.bind(engine, r, PowerBudget(320.0), None, 1.0)
            for i in range(8):
                r.servers[0].submit(
                    Request(COLLA_FILT, i, TrafficClass.ATTACK, 0.0)
                )
            scheme.step()
            return r.servers[0].level, r.total_power()

        local_level, local_power = hot_server_level(LocalCappingScheme)
        global_level, global_power = hot_server_level(CappingScheme)
        # Rack power is within budget either way...
        assert local_power <= 320.0 and global_power <= 320.0
        # ...but the local controller throttles the hot server (its
        # share is 80 W, fitting only ~2.0 GHz) while the global one
        # leaves it at nominal (100+114 < 320 rack-wide).
        assert global_level == 12
        assert local_level <= 8

    def test_idle_servers_stay_nominal(self, engine, rack):
        from repro.power import LocalCappingScheme

        scheme = LocalCappingScheme()
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        scheme.step()
        assert rack.levels() == [12] * 4

    def test_validation(self):
        from repro.power import LocalCappingScheme

        with pytest.raises(ValueError):
            LocalCappingScheme(hysteresis=0.9)
