"""Property tests for the aggregate-flow engine (Hypothesis).

Where ``test_batched_equivalence.py`` pins a fixed scheme × scenario ×
seed matrix, this suite searches the input space for counterexamples to
the two invariants the batched refactor rests on:

* **conservation** — no engine mode loses or invents requests: every
  generated request is either finished (in a completion record), still
  in the system, or was dropped with an attributed cause;
* **cohort sanity** — cohort bookkeeping never goes negative, and an
  aggregate completion record cannot be built from a non-positive
  count.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataCenterSimulation, SimulationConfig
from repro.network.request import CompletionRecord, RequestOutcome
from repro.obs.contract import EXECUTION_COUNTER_NAMES
from repro.power import BudgetLevel
from repro.workloads import VOLUME_DOS, TrafficClass

# ----------------------------------------------------------------------
# Conservation + scalar/batched agreement on random scenarios
# ----------------------------------------------------------------------


def _run_open_loop(seed, rate_rps, num_agents, mode, fluid=False):
    cfg = SimulationConfig(
        budget_level=BudgetLevel.LOW, seed=seed, firewall_poll_s=2.0
    )
    sim = DataCenterSimulation(cfg, engine_mode=mode, fluid=fluid)
    sim.add_normal_traffic(rate_rps=25.0)
    sim.add_flood(
        mix=VOLUME_DOS,
        rate_rps=rate_rps,
        num_agents=num_agents,
        closed_loop=False,
        poisson=True,
        label="prop-flood",
    )
    sim.run(8.0)
    return sim


def _assert_conserved(sim):
    generated = sum(g.generated for g in sim.generators)
    report = sim.availability_report(traffic_class=None)
    assert report.offered + sim.rack.total_in_system() == generated
    assert (
        report.served_within_sla + report.served_late + report.dropped
        == report.offered
    )
    assert 0 <= report.dropped_fault <= report.dropped


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    rate_rps=st.floats(min_value=10.0, max_value=900.0),
    num_agents=st.integers(min_value=1, max_value=12),
)
def test_conservation_and_batched_agreement(seed, rate_rps, num_agents):
    scalar = _run_open_loop(seed, rate_rps, num_agents, mode="scalar")
    batched = _run_open_loop(seed, rate_rps, num_agents, mode="batched")
    _assert_conserved(scalar)
    _assert_conserved(batched)

    def model_counters(sim):
        return {
            name: value
            for name, value in sim.obs.counters.as_dict().items()
            if name not in EXECUTION_COUNTER_NAMES
        }

    assert model_counters(scalar) == model_counters(batched)

    # Cohort bookkeeping never goes negative, and every cohort holds at
    # least one request.
    cohorts = batched.obs.counters.get("engine.cohorts_dispatched")
    members = batched.obs.counters.get("engine.cohort_requests")
    assert 0 <= cohorts <= members


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_fluid_conservation(seed):
    sim = _run_open_loop(seed, 3000.0, 4, mode="batched", fluid=True)
    _assert_conserved(sim)
    assert sim.obs.counters.get("engine.fluid_time_advanced_s") >= 0.0


# ----------------------------------------------------------------------
# Aggregate record construction
# ----------------------------------------------------------------------


@given(count=st.integers(min_value=1, max_value=10**9))
def test_aggregate_record_carries_its_count(count):
    record = CompletionRecord.aggregate(
        count,
        "volume_dos",
        TrafficClass.ATTACK,
        RequestOutcome.DROPPED_FIREWALL,
        12.5,
    )
    assert record.weight == count
    assert record.request_id == -1


@given(count=st.integers(max_value=0))
def test_aggregate_record_rejects_nonpositive_counts(count):
    with pytest.raises(ValueError):
        CompletionRecord.aggregate(
            count,
            "volume_dos",
            TrafficClass.ATTACK,
            RequestOutcome.DROPPED_FIREWALL,
            12.5,
        )
