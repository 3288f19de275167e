"""Unit tests for the simulation configuration."""

import pytest

from repro import BudgetLevel, SimulationConfig
from repro.obs import config_hash


class TestDefaults:
    def test_paper_testbed_defaults(self):
        cfg = SimulationConfig()
        assert cfg.num_servers == 4
        assert cfg.nameplate_w == 100.0
        assert cfg.firewall_threshold_rps == 150.0
        assert cfg.battery_sustain_s == 120.0
        assert cfg.budget_level is BudgetLevel.NORMAL

    def test_rack_nameplate(self):
        assert SimulationConfig().rack_nameplate_w == 400.0

    def test_supply_scales_with_level(self):
        cfg = SimulationConfig(budget_level=BudgetLevel.LOW)
        assert cfg.supply_w == pytest.approx(320.0)


class TestDerivedCopies:
    def test_with_budget(self):
        cfg = SimulationConfig().with_budget(BudgetLevel.MEDIUM)
        assert cfg.budget_level is BudgetLevel.MEDIUM
        assert cfg.num_servers == 4

    def test_with_seed(self):
        assert SimulationConfig().with_seed(9).seed == 9

    def test_without_firewall(self):
        assert not SimulationConfig().without_firewall().use_firewall

    def test_original_unchanged(self):
        cfg = SimulationConfig()
        cfg.with_budget(BudgetLevel.LOW)
        assert cfg.budget_level is BudgetLevel.NORMAL

    def test_frozen(self):
        with pytest.raises(Exception):
            SimulationConfig().seed = 5  # type: ignore[misc]


class TestValidation:
    def test_invalid_servers(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_servers=0)

    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            SimulationConfig(slot_s=0.0)

    def test_invalid_idle_fraction(self):
        with pytest.raises(ValueError):
            SimulationConfig(idle_fraction=1.0)

    def test_invalid_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)


class TestSerialisation:
    def test_near_default_horizon_round_trips_with_its_own_hash(self):
        near = SimulationConfig(prediction_horizon_s=60.00000003)
        assert near != SimulationConfig()
        data = near.to_dict()
        assert data["prediction_horizon_s"] == near.prediction_horizon_s
        assert SimulationConfig.from_dict(data) == near
        assert config_hash(data) != config_hash(SimulationConfig().to_dict())

    @pytest.mark.parametrize(
        "name, cfg",
        [
            pytest.param(
                "topology", SimulationConfig.for_topology("tree-small"), id="topology"
            ),
            pytest.param(
                "detect_placement",
                SimulationConfig(detect_placement="row"),
                id="detect_placement",
            ),
            pytest.param(
                "prediction_horizon_s",
                SimulationConfig(prediction_horizon_s=30.0),
                id="prediction_horizon_s",
            ),
        ],
    )
    def test_late_field_written_only_off_its_default(self, name, cfg):
        assert name not in SimulationConfig().to_dict()
        data = cfg.to_dict()
        assert data[name] == getattr(cfg, name)
        assert SimulationConfig.from_dict(data) == cfg
