"""Unit tests for the flash-crowd generator and config serialisation."""

import json

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    DataCenterSimulation,
    NullScheme,
    SimulationConfig,
)
from repro.workloads import TrafficClass, flash_sale_mix, make_flash_crowd


class TestFlashCrowd:
    def test_surge_is_tagged_normal(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1), scheme=NullScheme())
        gen = make_flash_crowd(
            sim.engine,
            sim.nlb.dispatch,
            sim.registry,
            sim.new_rng(),
            rate_rps=100.0,
            num_users=200,
            start_s=5.0,
            duration_s=20.0,
        )
        sim.run(40.0)
        records = sim.collector.filtered(traffic_class=TrafficClass.NORMAL)
        assert records, "the surge generated traffic"
        assert all(r.traffic_class is TrafficClass.NORMAL for r in records)

    def test_window_respected(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1), scheme=NullScheme())
        make_flash_crowd(
            sim.engine,
            sim.nlb.dispatch,
            sim.registry,
            sim.new_rng(),
            rate_rps=100.0,
            start_s=10.0,
            duration_s=10.0,
        )
        sim.run(40.0)
        arrivals = [r.arrival_time_s for r in sim.collector.records]
        assert min(arrivals) >= 10.0
        assert max(arrivals) <= 21.0

    def test_mix_is_heavy(self):
        mix = flash_sale_mix()
        names = {t.name for t in mix.types}
        assert names == {"colla-filt", "k-means", "word-count"}

    def test_many_distinct_sources_evade_nothing_needed(self):
        # A genuine crowd: per-source rate microscopic, firewall silent.
        sim = DataCenterSimulation(
            SimulationConfig(seed=1, firewall_threshold_rps=150.0),
            scheme=NullScheme(),
        )
        make_flash_crowd(
            sim.engine,
            sim.nlb.dispatch,
            sim.registry,
            sim.new_rng(),
            rate_rps=200.0,
            num_users=500,
            start_s=0.0,
            duration_s=30.0,
        )
        sim.run(40.0)
        assert sim.firewall.stats.bans == 0

    def test_anti_dope_throttles_the_crowd_too(self):
        """The false-positive cost: a legitimate heavy surge is routed
        to the suspect pool exactly like an attack."""
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=1),
            scheme=AntiDopeScheme(),
        )
        sim.add_normal_traffic(rate_rps=30)
        make_flash_crowd(
            sim.engine,
            sim.nlb.dispatch,
            sim.registry,
            sim.new_rng(),
            rate_rps=200.0,
            num_users=500,
            start_s=10.0,
            duration_s=60.0,
        )
        sim.run(80.0)
        # The surge went to the suspect pool.
        assert sim.obs.counters.get("network.pdf_suspect_forwarded") > 1000

    def test_validation(self):
        sim = DataCenterSimulation(SimulationConfig(seed=1))
        with pytest.raises(ValueError):
            make_flash_crowd(
                sim.engine,
                sim.nlb.dispatch,
                sim.registry,
                sim.new_rng(),
                rate_rps=0.0,
            )


class TestConfigSerialisation:
    def test_roundtrip_default(self):
        cfg = SimulationConfig()
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_roundtrip_custom(self):
        cfg = SimulationConfig(
            budget_level=BudgetLevel.LOW,
            num_servers=8,
            queue_timeout_s=2.0,
            seed=42,
        )
        assert SimulationConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_compatible(self):
        payload = json.dumps(SimulationConfig().to_dict())
        cfg = SimulationConfig.from_dict(json.loads(payload))
        assert cfg == SimulationConfig()

    def test_budget_level_as_name(self):
        d = SimulationConfig(budget_level=BudgetLevel.MEDIUM).to_dict()
        assert d["budget_level"] == "MEDIUM"

    def test_unknown_keys_rejected(self):
        d = SimulationConfig().to_dict()
        d["bogus"] = 1
        with pytest.raises(ValueError, match="unknown config keys"):
            SimulationConfig.from_dict(d)

    def test_invalid_values_still_validated(self):
        d = SimulationConfig().to_dict()
        d["num_servers"] = 0
        with pytest.raises(ValueError):
            SimulationConfig.from_dict(d)
