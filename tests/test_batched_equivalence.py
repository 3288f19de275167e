"""Golden equivalence: the batched engine reproduces the scalar engine.

The aggregate-flow refactor's contract is that ``mode="batched"`` is a
pure execution optimisation — for every scheme, scenario and seed, the
model output is **byte-identical** to the per-request scalar engine:

* every model counter (the telemetry table minus the declared
  execution counters, which measure how the run was computed);
* the :class:`~repro.obs.manifest.RunManifest` deterministic hash;
* the full completion-record stream, field for field;
* the availability decomposition and the exported metrics (CSV rows,
  collector summary).

The matrix below runs every power-management scheme from the paper's
Table 2 against three scenario shapes (the DOPE attack, a benign flash
crowd, and a faulted chaos run) across several seeds, on both engines,
and asserts exact equality throughout.  The opt-in fluid mode is
deliberately outside this contract (statistically faithful, not
byte-identical); its conservation properties are covered separately
here and in ``test_property_equivalence.py``.
"""

import io

import pytest

from repro import (
    AntiDopeScheme,
    CappingScheme,
    DataCenterSimulation,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis.export import collector_summary, records_to_csv
from repro.faults import FaultInjector, FaultPlan
from repro.obs.contract import EXECUTION_COUNTER_NAMES
from repro.power import BudgetLevel
from repro.workloads import TEXT_CONT, VOLUME_DOS, WORD_COUNT, dope_mix, uniform_mix

DURATION_S = 20.0

SCHEMES = {
    "capping": CappingScheme,
    "shaving": ShavingScheme,
    "token": TokenScheme,
    "anti-dope": AntiDopeScheme,
}

SEEDS = (1, 2, 3)

ATTACK_MIX = dope_mix()

FLASH_MIX = uniform_mix((TEXT_CONT, WORD_COUNT))


def _attack(sim: DataCenterSimulation) -> None:
    """The evaluation scenario: background load + closed-loop DOPE flood."""
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(mix=ATTACK_MIX, rate_rps=220.0, num_agents=20, start_s=5.0)


def _flash_crowd(sim: DataCenterSimulation) -> None:
    """A benign surge: open-loop Poisson burst that trips no firewall ban."""
    sim.add_normal_traffic(rate_rps=60.0)
    sim.add_flood(
        mix=FLASH_MIX,
        rate_rps=150.0,
        num_agents=30,
        start_s=4.0,
        closed_loop=False,
        poisson=True,
        label="flash-crowd",
    )


def _chaos(sim: DataCenterSimulation) -> None:
    """The attack scenario with injected meter noise and a server crash."""
    plan = (
        FaultPlan(seed=sim.config.seed)
        .meter_noise(3.0, sigma_w=8.0)
        .server_crash(DURATION_S / 2.0, 0, DURATION_S / 4.0)
    )
    FaultInjector(sim, plan).arm()
    _attack(sim)


SCENARIOS = {
    "attack": _attack,
    "flash-crowd": _flash_crowd,
    "chaos": _chaos,
}


def _run(scheme_factory, scenario: str, seed: int, mode: str, fluid=False):
    cfg = SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed)
    sim = DataCenterSimulation(
        cfg, scheme=scheme_factory(), engine_mode=mode, fluid=fluid
    )
    SCENARIOS[scenario](sim)
    sim.run(DURATION_S)
    return sim


def _model_counters(sim: DataCenterSimulation) -> dict:
    return {
        name: value
        for name, value in sim.obs.counters.as_dict().items()
        if name not in EXECUTION_COUNTER_NAMES
    }


def _record_rows(sim: DataCenterSimulation) -> list:
    return [
        (
            r.request_id,
            r.type_name,
            r.traffic_class,
            r.outcome,
            r.arrival_time_s,
            r.finish_time_s,
            r.server_id,
            r.weight,
        )
        for r in sim.collector.records
    ]


def _csv(sim: DataCenterSimulation) -> str:
    buffer = io.StringIO()
    records_to_csv(sim.collector.records, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_batched_path_is_byte_identical(scheme, scenario, seed):
    scalar = _run(SCHEMES[scheme], scenario, seed, mode="scalar")
    batched = _run(SCHEMES[scheme], scenario, seed, mode="batched")

    # Model counters (everything but the declared execution counters)
    # agree exactly; the manifest hash seals the same table plus the
    # config identity.
    assert _model_counters(scalar) == _model_counters(batched)
    assert (
        scalar.run_manifest("eq").deterministic_hash()
        == batched.run_manifest("eq").deterministic_hash()
    )

    # The full completion-record stream is identical, field for field,
    # in order — same ids, same float times, same outcomes.
    assert _record_rows(scalar) == _record_rows(batched)

    # Derived metrics and exports follow from the above, but assert
    # them directly so a representation change cannot slip through.
    assert scalar.availability_report() == batched.availability_report()
    assert collector_summary(scalar.collector) == collector_summary(
        batched.collector
    )
    assert _csv(scalar) == _csv(batched)


def test_execution_counters_are_the_only_divergence():
    """Batched runs do report different *work* — that is the point."""
    scalar = _run(AntiDopeScheme, "attack", 1, mode="scalar")
    batched = _run(AntiDopeScheme, "attack", 1, mode="batched")
    scalar_exec = {
        n: scalar.obs.counters.get(n) for n in EXECUTION_COUNTER_NAMES
    }
    batched_exec = {
        n: batched.obs.counters.get(n) for n in EXECUTION_COUNTER_NAMES
    }
    assert scalar_exec != batched_exec
    assert batched_exec["engine.cohorts_dispatched"] > 0
    assert scalar_exec["engine.cohorts_dispatched"] == 0


def test_fluid_mode_conserves_requests_outside_the_contract():
    """Fluid runs are approximate but never lose or invent requests."""
    cfg = SimulationConfig(
        budget_level=BudgetLevel.LOW, seed=5, firewall_poll_s=1.0
    )
    sim = DataCenterSimulation(cfg, engine_mode="batched", fluid=True)
    sim.add_normal_traffic(rate_rps=20.0)
    sim.add_flood(
        mix=VOLUME_DOS,
        rate_rps=4000.0,
        num_agents=8,
        closed_loop=False,
        poisson=True,
        label="volume-dos",
    )
    sim.run(30.0)
    assert sim.obs.counters.get("engine.fluid_segments") > 0
    generated = sum(g.generated for g in sim.generators)
    report = sim.availability_report(traffic_class=None)
    in_flight = sim.rack.total_in_system()
    assert report.offered + in_flight == generated
    assert (
        report.served_within_sla
        + report.served_late
        + report.dropped
        == report.offered
    )
