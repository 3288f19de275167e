"""Unit tests for the assembled Anti-DOPE scheme and the suspect-pool
behaviour it shares with online-detect."""

import pytest

from repro import (
    AntiDopeScheme,
    BudgetLevel,
    DataCenterSimulation,
    OnlineDetectScheme,
    SimulationConfig,
)
from repro.core import SuspectList
from repro.power import PowerBudget
from repro.workloads import ALL_TYPES, COLLA_FILT


class SharedBinding:
    """Suspect-pool behaviour every suspect-pool scheme shares.

    Each subclass names its scheme in ``make``.  Schemes are bound the
    way the simulation facade binds them: ``bind()``, then
    ``forwarding_policy()``.
    """

    make = None

    def bound(self, engine, rack, battery=None, **options):
        scheme = self.make(**options)
        scheme.bind(engine, rack, PowerBudget(320.0), battery, 1.0)
        return scheme, scheme.forwarding_policy()

    def test_suspect_queue_regulation_applied(self, engine, rack):
        _, policy = self.bound(engine, rack, suspect_queue_factor=3.0)
        suspect = policy.suspect_pool[0]
        assert suspect.queue_capacity == 3 * suspect.num_workers
        for innocent in policy.innocent_pool:
            assert innocent.queue_capacity == 512

    def test_queue_regulation_disabled_with_none(self, engine, rack):
        _, policy = self.bound(engine, rack, suspect_queue_factor=None)
        assert policy.suspect_pool[0].queue_capacity == 512

    def test_battery_ablation_arm(self, engine, rack):
        from repro.power import Battery

        battery = Battery.for_rack(400.0)
        scheme, _ = self.bound(engine, rack, battery, use_battery_transition=False)
        assert scheme.rpm.battery is None

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(suspect_pool_size=0)
        with pytest.raises(ValueError):
            self.make(suspect_queue_factor=0.5)
        for hysteresis in (0.5, 0.7, 1.5):
            with pytest.raises(ValueError):
                self.make(hysteresis=hysteresis)


class TestBinding(SharedBinding):
    make = AntiDopeScheme

    def test_builds_suspect_list_from_model(self, engine, rack):
        scheme = AntiDopeScheme()
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        assert scheme.suspect_list is not None
        assert scheme.suspect_list.is_suspect(COLLA_FILT.url)

    def test_respects_prebuilt_suspect_list(self, engine, rack, power_model):
        custom = SuspectList.from_model(ALL_TYPES, power_model, 0.95)
        scheme = AntiDopeScheme(suspect_list=custom)
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        assert scheme.suspect_list is custom

    def test_pdf_policy_exposed_as_forwarding_policy(self, engine, rack):
        scheme = AntiDopeScheme(suspect_pool_size=2)
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        policy = scheme.forwarding_policy()
        assert policy is scheme.policy
        assert scheme.suspect_server_ids == [2, 3]

    def test_no_admission_filter(self, engine, rack):
        scheme = AntiDopeScheme()
        scheme.bind(engine, rack, PowerBudget(320.0), None, 1.0)
        assert scheme.admission_filter() is None

    def test_validation(self):
        super().test_validation()
        with pytest.raises(ValueError):
            AntiDopeScheme(suspect_threshold_fraction=1.0)

    def test_step_before_bind_rejected(self):
        with pytest.raises(RuntimeError):
            AntiDopeScheme().step()


class TestOnlineDetectBinding(SharedBinding):
    make = OnlineDetectScheme


class TestEndToEnd:
    def test_attack_confined_to_suspect_pool(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=11),
            scheme=AntiDopeScheme(),
        )
        sim.add_normal_traffic(rate_rps=30)
        sim.add_flood(mix=COLLA_FILT, rate_rps=200, num_agents=20, start_s=10)
        sim.run(90)
        suspect_id = sim.scheme.suspect_server_ids[0]
        by_server = {}
        for rec in sim.collector.records:
            if rec.type_name == "colla-filt" and rec.server_id is not None:
                by_server[rec.server_id] = by_server.get(rec.server_id, 0) + 1
        # Every Colla-Filt request landed on the suspect server.
        assert set(by_server) == {suspect_id}

    def test_power_never_exceeds_budget_steadily(self):
        sim = DataCenterSimulation(
            SimulationConfig(budget_level=BudgetLevel.LOW, seed=11),
            scheme=AntiDopeScheme(),
        )
        sim.add_normal_traffic(rate_rps=30)
        sim.add_flood(mix=COLLA_FILT, rate_rps=300, num_agents=20, start_s=10)
        sim.run(120)
        powers = sim.meter.powers()
        # Transients during reconfiguration slots are allowed; steady
        # state must comply: less than 5 % of samples over budget.
        over = (powers > sim.budget.supply_w).mean()
        assert over < 0.05

    def test_normal_latency_shielded_from_attack(self):
        """The headline property: legitimate light traffic barely
        notices a DOPE flood under Anti-DOPE."""

        cfg = SimulationConfig(budget_level=BudgetLevel.LOW, seed=11)
        quiet = DataCenterSimulation(cfg, scheme=AntiDopeScheme())
        quiet.add_normal_traffic(rate_rps=30)
        quiet.run(120)
        base = quiet.latency_stats(type_name="text-cont", start_s=30)

        noisy = DataCenterSimulation(cfg, scheme=AntiDopeScheme())
        noisy.add_normal_traffic(rate_rps=30)
        noisy.add_flood(mix=COLLA_FILT, rate_rps=300, num_agents=20, start_s=10)
        noisy.run(120)
        under_attack = noisy.latency_stats(type_name="text-cont", start_s=30)
        assert under_attack.mean < base.mean * 2.0
