"""Table 2 as algebra: a degenerate scheme equals a simpler one.

Table 2 of the paper defines each scheme as a mechanism, so a scheme
whose extra mechanism can never act must reduce to the simpler one,
byte for byte.  The pairs pinned here:

* ``AntiDopeScheme`` with a suspect list in which every URL is innocent
  (PDF never isolates anything), against ``OnlineDetectScheme`` with
  thresholds no score reaches (the detector never quarantines).  Both
  then run the same suspect-pool control slot over the same carve, so
  the completion records and every counter both sides emit must be
  equal.  The only counters allowed to differ are the ones each side's
  classifier adds: ``network.pdf_*`` (PDF) and ``detect.*`` (the
  detector).
* ``TokenScheme`` with a bucket that never runs dry, against
  ``NullScheme``.  Token is Null plus the bucket, so the records and
  the whole counter table must be equal, on a power tree too, where
  per-PDU protection caps levels within a slot.

The scenario is the bench scenario at 60 s: LOW budget, 40 rps normal
load and a 220 rps 20-agent flood from t = 30 s.
"""

import dataclasses
import hashlib
import io

import pytest

from repro import (
    AntiDopeScheme,
    DataCenterSimulation,
    NullScheme,
    OnlineDetectScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis.export import records_to_csv
from repro.cluster import FLAT_TOPOLOGY, ServerPowerModel
from repro.core import SuspectList
from repro.power import BudgetLevel
from repro.workloads import ALL_TYPES, dope_mix

ATTACK_MIX = dope_mix()

#: Counter families only one side of the pair emits.
ONE_SIDED_PREFIXES = ("network.pdf_", "detect.")


def all_innocent() -> SuspectList:
    """The offline profile with every URL classified innocent.

    No ``threshold_fraction`` gets there: Colla-Filt's full-load power
    is exactly the nameplate, so it is suspect at any fraction below 1.
    """
    profiled = SuspectList.from_model(ALL_TYPES, ServerPowerModel())
    profiles = {
        url: dataclasses.replace(profiled.profile(url), suspect=False)
        for url in profiled.suspect_urls + profiled.innocent_urls
    }
    return SuspectList(profiles, profiled.threshold_w)


def _run(make_scheme, topology: str, seed: int, mode: str):
    config = SimulationConfig.for_topology(
        topology, budget_level=BudgetLevel.LOW, seed=seed
    )
    sim = DataCenterSimulation(config, scheme=make_scheme(), engine_mode=mode)
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(mix=ATTACK_MIX, rate_rps=220.0, num_agents=20, start_s=30.0)
    sim.run(60.0)
    return sim


def _records_sha256(sim) -> str:
    buffer = io.StringIO()
    records_to_csv(sim.collector.records, buffer)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def _shared_counters(sim) -> dict:
    return {
        name: value
        for name, value in sim.obs.counters.as_dict().items()
        if not name.startswith(ONE_SIDED_PREFIXES)
    }


def _anti_dope_without_suspects():
    return AntiDopeScheme(suspect_list=all_innocent())


def _detector_that_never_quarantines():
    return OnlineDetectScheme(enter_threshold=1e9, exit_threshold=1e8)


@pytest.mark.parametrize("mode", ["scalar", "batched"])
@pytest.mark.parametrize("topology", [FLAT_TOPOLOGY, "tree-small"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_anti_dope_without_suspects_equals_a_quiet_detector(seed, topology, mode):
    anti_dope = _run(_anti_dope_without_suspects, topology, seed, mode)
    detect = _run(_detector_that_never_quarantines, topology, seed, mode)
    assert detect.obs.counters.get("detect.quarantine_enters") == 0
    assert anti_dope.obs.counters.get("network.pdf_suspect_forwarded") == 0
    assert _records_sha256(anti_dope) == _records_sha256(detect)
    assert _shared_counters(anti_dope) == _shared_counters(detect)


def _bucket_that_never_runs_dry():
    return TokenScheme(burst_s=1e9, safety_factor=1.0)


@pytest.mark.parametrize("mode", ["scalar", "batched"])
@pytest.mark.parametrize("topology", [FLAT_TOPOLOGY, "tree-small"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_token_with_a_bucket_that_never_runs_dry_equals_null(seed, topology, mode):
    token = _run(_bucket_that_never_runs_dry, topology, seed, mode)
    null = _run(NullScheme, topology, seed, mode)
    assert token.obs.counters.get("network.nlb_dropped.dropped_token") == 0
    assert _records_sha256(token) == _records_sha256(null)
    assert token.obs.counters.as_dict() == null.obs.counters.as_dict()


@pytest.mark.parametrize("make_scheme", [NullScheme, _bucket_that_never_runs_dry])
def test_unmanaged_tree_returns_to_the_ladder_top_after_the_flood(make_scheme):
    # Per-PDU protection caps levels while the flood is on; once it is
    # over, every slot lifts them back to the top of the ladder.
    config = SimulationConfig.for_topology(
        "tree-small", budget_level=BudgetLevel.LOW, seed=1
    )
    sim = DataCenterSimulation(config, scheme=make_scheme())
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(
        mix=ATTACK_MIX, rate_rps=220.0, num_agents=20, start_s=30.0, end_s=90.0
    )
    top = sim.rack.ladder.max_level
    after = []
    for t_s in (100.0, 150.0, 199.0):
        sim.engine.schedule_at(t_s, lambda: after.append(sim.rack.levels()))
    sim.run(200.0)
    cap_slots = [
        value
        for name, value in sim.obs.counters.as_dict().items()
        if name.startswith("topology.cap_slots.")
    ]
    assert sum(cap_slots) > 0
    assert after == [[top] * 8] * 3
