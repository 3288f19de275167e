"""OnlineDetect end-to-end: quarantine, placement, faults, DOPE region.

The acceptance scenarios of the fifth scheme:

* a flood population is quarantined with zero false positives on the
  legitimate AliOS users, although no agent crosses the per-source
  firewall threshold (a strict xfail records that with no attack at
  all, legitimate users *are* quarantined — DESIGN §13);
* row placement carves one quarantine server per power-tree row;
* the detector keeps working (clamped, not amplifying garbage) under
  meter noise and dropout;
* **shrinkage** — a DOPE operating point the static Anti-DOPE suspect
  list cannot see (the attacker requests types outside the offline
  profile) is *detected* by OnlineDetect, and the fig11 analyzer's
  dope fraction shrinks accordingly;
* **evasion** — the probe-and-adjust attacker of Fig. 12, given a
  quarantine feedback signal and a mix-dilution evasion knob, still
  fails to reopen the region: the shrinkage survives adaptation.
"""

import json

import pytest

from repro import AntiDopeScheme, CappingScheme, OnlineDetectScheme
from repro.analysis import DopeRegionAnalyzer, detector_summary
from repro.faults import FaultInjector, FaultPlan
from repro.power import BudgetLevel
from repro.sim import DataCenterSimulation, SimulationConfig
from repro.workloads import COLLA_FILT, K_MEANS, TEXT_CONT, VOLUME_DOS, uniform_mix


def _flood_run(scheme, seed=1, duration_s=60.0, **config_kwargs):
    config = SimulationConfig(
        budget_level=BudgetLevel.LOW, seed=seed, **config_kwargs
    )
    sim = DataCenterSimulation(config, scheme=scheme)
    sim.add_normal_traffic(rate_rps=40.0, num_users=50)
    flood = sim.add_flood(
        mix=COLLA_FILT, rate_rps=220.0, num_agents=20, start_s=5.0
    )
    return sim, flood


def _violation_slots(sim):
    return sim.obs.counters.get("power.budget_violation_slots")


def _source_rates_rps(scheme, now):
    extractor = scheme.extractor
    return {s: extractor.features(s, now).rate_rps for s in extractor.sources()}


class TestQuarantine:
    def test_flood_quarantined_without_false_positives(self):
        scheme = OnlineDetectScheme()
        sim, flood = _flood_run(scheme)
        normal_pool = sim.generators[0].source_pool
        sim.run(4.0)  # the flood starts at t=5 s
        rate_before_rps = sum(_source_rates_rps(scheme, sim.now).values())
        sim.run(56.0)
        suspects = scheme.suspect_sources
        assert all(flood.source_pool.contains(s) for s in suspects)
        assert not any(normal_pool.contains(s) for s in suspects)
        # The whole agent pool ends up flagged, not just a straggler.
        assert len(suspects) == flood.source_pool.size
        # Detection without attribution: the aggregate rate jumps, yet
        # no agent crosses the per-source firewall threshold.
        rates = _source_rates_rps(scheme, sim.now)
        assert all(
            rates[s] < sim.config.firewall_threshold_rps
            for s in flood.source_pool.ids
        )
        assert sim.firewall.stats.bans == 0
        assert sum(rates.values()) >= 3.0 * rate_before_rps

    @pytest.mark.xfail(
        strict=True,
        reason="online-detect quarantines legitimate users with no attack "
        "(DESIGN §13)",
    )
    def test_no_false_positives_without_attack(self):
        scheme = OnlineDetectScheme()
        sim = DataCenterSimulation(SimulationConfig(seed=1), scheme=scheme)
        sim.add_normal_traffic(rate_rps=40.0)
        sim.run(30.0)
        # Every source is a legitimate user: none may ever be quarantined.
        assert sim.obs.counters.get("detect.quarantine_enters") == 0

    def test_report_is_deterministic_and_json_safe(self):
        def run():
            scheme = OnlineDetectScheme()
            sim, _ = _flood_run(scheme, duration_s=30.0)
            sim.run(30.0)
            return detector_summary(scheme)

        first, second = run(), run()
        assert first == second
        # allow_nan=False: the export contract — no NaN/Inf anywhere.
        payload = json.dumps(first, sort_keys=True, allow_nan=False)
        assert "online-detect" in payload
        assert first["warmed_up"] is True
        assert first["suspect_sources"]

    def test_detector_summary_none_for_static_schemes(self):
        assert detector_summary(CappingScheme()) is None


class TestRowPlacement:
    def test_row_placement_carves_one_server_per_row(self):
        config = SimulationConfig.for_topology(
            "tree-small", budget_level=BudgetLevel.LOW, seed=1,
            detect_placement="row",
        )
        scheme = OnlineDetectScheme(placement="row")
        sim = DataCenterSimulation(config, scheme=scheme)
        spec = config.topology_spec
        # One quarantine server per row, each the last of its row span.
        servers_per_row = spec.racks_per_row * spec.servers_per_rack
        expected = [
            (r + 1) * servers_per_row - 1 for r in range(spec.rows)
        ]
        assert scheme.policy.suspect_server_ids == expected
        sim.run(5.0)

    def test_flat_model_falls_back_to_dc_carve(self):
        scheme = OnlineDetectScheme(placement="row")
        sim, _ = _flood_run(scheme)
        # No tree bound: the dc carve (last server) stays in place.
        assert scheme.policy.suspect_server_ids == [
            sim.config.num_servers - 1
        ]


class TestFaultDegradation:
    def test_detector_survives_meter_noise_and_dropout(self):
        scheme = OnlineDetectScheme()
        sim, flood = _flood_run(scheme)
        plan = FaultPlan(seed=3)
        plan.meter_noise(10.0, sigma_w=8.0, bias_w=0.0)
        plan.meter_dropout(25.0, duration_s=15.0)
        FaultInjector(sim, plan).arm()
        sim.run(60.0)
        # Degraded sensing keeps the gain bounded …
        from repro.detect.features import GAIN_MAX, GAIN_MIN

        report = scheme.report()
        assert GAIN_MIN <= report["calibration_gain"] <= GAIN_MAX
        # … and the behavioural features still catch the flood.
        assert any(
            flood.source_pool.contains(s) for s in scheme.suspect_sources
        )

    def test_dropout_clamps_calibration_at_light_load(self):
        # A blind meter answers worst-case nameplate; on a mostly-idle
        # rack the raw sensed/modelled ratio (~2.6 here) exceeds
        # GAIN_MAX, so the extractor must clamp rather than amplify.
        scheme = OnlineDetectScheme()
        config = SimulationConfig(budget_level=BudgetLevel.LOW, seed=3)
        sim = DataCenterSimulation(config, scheme=scheme)
        sim.add_normal_traffic(rate_rps=5.0, num_users=20)
        plan = FaultPlan(seed=3)
        plan.meter_dropout(10.0, duration_s=20.0)
        FaultInjector(sim, plan).arm()
        sim.run(40.0)
        from repro.detect.features import GAIN_MAX

        assert sim.obs.counters.get("detect.calibration_clamped") > 0
        assert scheme.report()["calibration_gain"] <= GAIN_MAX


class TestRegionShrinkage:
    """The headline: the detector shrinks the undetectable DOPE region.

    The static suspect list is profiled on the *wrong* types (the
    adaptive attacker sidesteps the offline profile), so a colla-filt
    flood violates the budget with zero bans — a DOPE cell.  The online
    detector classifies by behaviour, not URL, and flags the same
    operating point.
    """

    SIDESTEP_TYPES = (TEXT_CONT, VOLUME_DOS)

    def _probe(self, scheme):
        config = SimulationConfig(budget_level=BudgetLevel.LOW, seed=5)
        sim = DataCenterSimulation(config, scheme=scheme)
        sim.add_normal_traffic(rate_rps=20.0, num_users=50)
        flood = sim.add_flood(
            mix=COLLA_FILT, rate_rps=250.0, num_agents=20
        )
        sim.run(30.0)
        peak = sim.meter.peak_power()
        flagged = bool(
            getattr(scheme, "suspect_sources", None)
        ) and any(
            flood.source_pool.contains(s) for s in scheme.suspect_sources
        )
        return peak, sim.budget.supply_w, sim.firewall.stats.bans, flagged

    def test_static_list_misses_what_online_detect_flags(self):
        peak, budget, bans, flagged = self._probe(
            AntiDopeScheme(profiled_types=self.SIDESTEP_TYPES)
        )
        assert peak > budget  # the attack lands …
        assert bans == 0 and not flagged  # … and stays invisible: DOPE.
        peak2, budget2, bans2, flagged2 = self._probe(OnlineDetectScheme())
        assert peak2 > budget2  # same operating point …
        assert flagged2  # … but now detected.

    def test_analyzer_dope_fraction_shrinks(self):
        kwargs = dict(
            config=SimulationConfig(budget_level=BudgetLevel.LOW, seed=5),
            window_s=15.0,
            num_agents=20,
        )
        types = (COLLA_FILT, K_MEANS)
        rates = (60.0, 250.0, 600.0)
        unmanaged = DopeRegionAnalyzer(**kwargs).sweep(types, rates)
        detected = DopeRegionAnalyzer(scheme="online-detect", **kwargs).sweep(
            types, rates
        )
        assert unmanaged.dope_fraction() > 0.0
        assert detected.dope_fraction() < unmanaged.dope_fraction()
        # Detector flags never appear without the detector.
        assert not any(c.detector_flagged for c in unmanaged.cells)
        assert any(c.detector_flagged for c in detected.cells)


class TestAdaptiveEvasion:
    """Fig. 12 attacker vs the detector: shrinkage survives adaptation."""

    ATTACK = dict(
        target_mix=uniform_mix((COLLA_FILT, K_MEANS)),
        initial_rate_rps=100.0,
        rate_step_rps=75.0,
        max_rate_rps=800.0,
        num_agents=20,
        adjust_interval_s=10.0,
    )
    DURATION_S = 180.0

    def _arm(self, scheme, **attacker_kwargs):
        config = SimulationConfig(budget_level=BudgetLevel.LOW, seed=9)
        sim = DataCenterSimulation(config, scheme=scheme)
        sim.add_normal_traffic(rate_rps=30.0)

        def effect():
            recent = sim.meter.samples[-20:]
            return bool(recent) and (
                max(s.power_w for s in recent) > sim.budget.supply_w
            )

        holder = {}

        def quarantine():
            att = holder.get("att")
            pool = getattr(scheme, "suspect_sources", None)
            if att is None or pool is None:
                return False
            return any(att.pool.contains(s) for s in pool)

        att = sim.add_dope_attacker(
            effect_signal=effect,
            quarantine_signal=quarantine,
            **self.ATTACK,
            **attacker_kwargs,
        )
        holder["att"] = att
        sim.run(self.DURATION_S)
        adjustments = att.stats.adjustments
        q_frac = (
            sum(1 for a in adjustments if a.quarantined) / len(adjustments)
            if adjustments
            else 0.0
        )
        return {
            "converged": att.stats.converged,
            "final_rate": att.stats.final_rate,
            "violations": _violation_slots(sim),
            "bans": sim.firewall.stats.bans,
            "peak": sim.meter.peak_power(),
            "q_frac": q_frac,
            "dilution": att.dilution,
        }

    def test_attacker_beats_sidestepped_static_list(self):
        out = self._arm(
            AntiDopeScheme(profiled_types=TestRegionShrinkage.SIDESTEP_TYPES)
        )
        # The classic DOPE endgame: converged, unbanned, over budget.
        assert out["converged"]
        assert out["bans"] == 0
        assert out["violations"] > 0

    def test_detector_denies_the_attacker(self):
        out = self._arm(OnlineDetectScheme())
        assert out["violations"] == 0
        assert out["q_frac"] > 0.5  # quarantined nearly the whole run

    def test_dilution_evasion_does_not_reopen_the_region(self):
        baseline = self._arm(OnlineDetectScheme())
        evading = self._arm(OnlineDetectScheme(), dilution_step=0.2)
        assert evading["dilution"] > 0.0  # the evasion actually engaged
        assert evading["violations"] == 0  # … and still bought nothing:
        assert evading["q_frac"] > 0.5  # rate/burstiness features hold.
        # Diluting toward the benign mix can only lower attack potency.
        assert evading["peak"] <= baseline["peak"] + 5.0
