"""The topology matrix contract: flat identity + the tree headline.

Two halves, both CI-gated by the ``topology-equivalence`` job:

**Flat byte-identity.**  ``--topology flat`` (the default) must remain
byte-identical to the simulator as it existed *before* the power-tree
layer: the golden table below embeds the deterministic manifest hash
and the completion-CSV SHA-256 of the evaluation scenario for every
Table-2 scheme × three seeds, captured on the pre-topology tree.  Any
drift — an extra counter, a stolen RNG draw, a config-hash change from
the new ``topology`` field — fails here with the exact scheme/seed
that moved.  The hashes are frozen history: they cannot be regenerated
from this tree, so a mismatch is never "update the table", it is a
broken contract.

**Tree headline.**  The committed rack-concentration scenario is the
paper's blind spot made measurable: on the unprotected ``tree-pinned``
preset a flow-pinned flood drives one rack PDU over its budget while
the DC-feed meter — the only meter the flat model has — stays under
budget the whole run, and the exported metrics blame exactly the
violated rack.  Both engines must agree byte-for-byte on all of it.
"""

import hashlib
import io

import pytest

from repro import (
    AntiDopeScheme,
    CappingScheme,
    DataCenterSimulation,
    OnlineDetectScheme,
    PredictionScheme,
    ShavingScheme,
    SimulationConfig,
    TokenScheme,
)
from repro.analysis.export import records_to_csv, topology_summary
from repro.cluster import FLAT_TOPOLOGY, topology_names
from repro.obs import config_hash
from repro.power import BudgetLevel
from repro.workloads import COLLA_FILT, K_MEANS, WORD_COUNT, uniform_mix

ATTACK_MIX = uniform_mix((COLLA_FILT, K_MEANS, WORD_COUNT))

SCHEMES = {
    "capping": CappingScheme,
    "shaving": ShavingScheme,
    "token": TokenScheme,
    "anti-dope": AntiDopeScheme,
    "online-detect": OnlineDetectScheme,
    "prediction": PredictionScheme,
}

SEEDS = (1, 2, 3)

#: Golden (manifest deterministic hash, completion-CSV sha256) of the
#: evaluation scenario, captured on the pre-topology tree at version
#: 1.2.0.  Frozen history — do not regenerate.
GOLDEN = {
    "anti-dope/1": (
        "c030a79c155d6f3f7210a823cef908c9024c132a5c46c29452d9969470c2e8f0",
        "6eccd34538ed54e4a9449b35c8da46278c646c9459f6bc5f1a868e4af8e70425",
    ),
    "anti-dope/2": (
        "a025fd86a06adf7958dac3a7ca660a0a3e3a6e45445d83e0093593d495c6de07",
        "1f6131a50835b21b00ecda804dac536f4a2ed7d31b2722e1cea96225f9814f52",
    ),
    "anti-dope/3": (
        "4ba72c1154e976d9c338d8252695dc68ddf6cdcfc3079605fdb1a7a0f074a008",
        "1f3742ad1f06cfaa3b5ac30566cdf08a88d410da2922edab68b3b0f4447a63c4",
    ),
    "capping/1": (
        "91e245e1ae15922d0de1116ab299954749905a5b6e43333a4a1c1898b962381e",
        "b440265f5ff599fb617ec5fff3e0c09eba3b2315f8993651cec9447bf44039f3",
    ),
    "capping/2": (
        "074ba697d320cb56025403a593a3f1c7e6d3dd20c8dbe6037d2f6bee750c06b0",
        "3334a014e7769e2d85d33bb53b0e70470cb57bd5b7e527244efdc4568c2e5cae",
    ),
    "capping/3": (
        "005ea7d6eabf26a588704d8f44914f335390a2105585756f859475ea813d020e",
        "c3eeb720ed8b39cb41aad923672c789c99d852a9df5d7a962fbb76506b46733b",
    ),
    "shaving/1": (
        "322fcade3785fff05e14adf57dfec4d404e07e057f2554d0d8bb8ffd7e9ed457",
        "90f663818d932b6abd0efdec79872b41de96805d914d25620002c8cffad92437",
    ),
    "shaving/2": (
        "97070094822f1f50ec47be4c296feba3f1a591c708a7237c13a000af138ac443",
        "0db60f41df990e63603c3c4e8ff7dfc73794ded675750c22b594d96fbbe954ee",
    ),
    "shaving/3": (
        "a87b0950c9e1f1b120d87800ce1f4cf76e1f0bfec142f15c2bafc3f616ccb627",
        "e0e64532533879eecc737c8496dfab4f5f8bdd83dfdab6e01422d838e2348dd7",
    ),
    "token/1": (
        "30115fe81a1961f622ff4f22b8e7afc316d8564feeff99e23653004296dc3568",
        "d997663e06cf94dc712ec8eddec1de0daa473c3959bc8e3fa17778afe1ffad20",
    ),
    "token/2": (
        "2a90038ec83044ba952abc85c9d63b3b12b941d459155183a07b9bc969961c26",
        "966d43e19d3a70322c8b70b4657c9defa708fddc366d847214f3a8307d40a3d4",
    ),
    "token/3": (
        "cb7a210bc03b27f8a1a33361d2d1b523e579061daca404f295b7bbfaccc0712a",
        "a274a5507ba276353cb7712db9f43d3b0afa13a104f4180f09fa7b2b150e19ae",
    ),
    # online-detect joined the matrix later; its entries were captured
    # on the tree that introduced the scheme and are frozen from that
    # point on, like the four above.
    "online-detect/1": (
        "7de62dd29f2b2b88e1a02a96d342bea8732c4e2eaf2c946746affea0c41c85f8",
        "0e73ffe6edb51bcc4125d86a8f04eca6afbdde502a82926e11790d7c26f2f3ea",
    ),
    "online-detect/2": (
        "f473cb0395c11c3e4229b3270610f0289d06474500605723e902c6b6c81d89f5",
        "9871c32cdb704a79221df15e3d871010e7e99c4ec106e3e59b32c7c119de6726",
    ),
    "online-detect/3": (
        "c0994d1ddb40859fe30e3469a8566fc42085a00c731d1f18a6dbb5f3b63f4398",
        "2f36a2805e50db40898bc2fdc2563a4c19ed7b93e66002c38a6a71723836610b",
    ),
    # prediction joined the matrix with the sixth scheme; its entries
    # were captured on the tree that introduced it and are frozen from
    # that point on, like the five above.
    "prediction/1": (
        "805017597fda17a72d3b89a54388f83cde4cf973d7cad47f4480a9cd763d3bee",
        "8473379c18a870bb5e7e1791bcb7d7db61fdc3622fd94b33177719a63a250595",
    ),
    "prediction/2": (
        "e66e855d0de8e5dca91f7873f252046c6093e1a11c4dd013d113a1cec2fea48b",
        "9a40cca25465362dea8ad6ab365ff29356a3e6e859eb1fc85f323081ec730491",
    ),
    "prediction/3": (
        "81a4021e5a76cafcc575ed0851e2df123f7f87a4b1b642aa10d0f298b8436093",
        "4e5d5dc5b04b9c3b413e9b2368000e4dd4ed1fe9f5f9069334aaccafad4836a0",
    ),
}

#: config_hash of the default SimulationConfig on the pre-topology
#: tree.  The flat config must serialise *without* a topology key so
#: every cached experiment and committed manifest keeps its identity.
DEFAULT_CONFIG_HASH = (
    "d93295030bb31fd41afa2fe5607e3a73be68e7a86b249ac0c33c9cc7bedaddf9"
)


def _golden_run(scheme_name: str, seed: int) -> DataCenterSimulation:
    sim = DataCenterSimulation(
        SimulationConfig(budget_level=BudgetLevel.LOW, seed=seed),
        scheme=SCHEMES[scheme_name](),
    )
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(mix=ATTACK_MIX, rate_rps=220.0, num_agents=20, start_s=5.0)
    sim.run(20.0)
    return sim


def _csv_sha256(sim: DataCenterSimulation) -> str:
    buffer = io.StringIO()
    records_to_csv(sim.collector.records, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_flat_default_matches_pre_topology_golden(scheme_name, seed):
    sim = _golden_run(scheme_name, seed)
    manifest_hash, csv_hash = GOLDEN[f"{scheme_name}/{seed}"]
    assert sim.run_manifest("golden-flat").deterministic_hash() == manifest_hash
    assert _csv_sha256(sim) == csv_hash


def test_default_config_hash_is_unchanged():
    cfg = SimulationConfig()
    assert cfg.topology == FLAT_TOPOLOGY
    assert config_hash(cfg.to_dict()) == DEFAULT_CONFIG_HASH
    # The topology key must be absent from the flat serialised form —
    # its presence would silently re-key every cached experiment.
    assert "topology" not in cfg.to_dict()


def test_explicit_flat_is_the_default():
    assert (
        SimulationConfig.for_topology(FLAT_TOPOLOGY).to_dict()
        == SimulationConfig().to_dict()
    )


def test_flat_runs_emit_no_topology_or_fabric_telemetry():
    sim = _golden_run("capping", 1)
    names = sim.engine.obs.counters.as_dict()
    assert not any(n.startswith(("topology.", "fabric.")) for n in names)
    assert sim.topology is None
    assert sim.topology_monitor is None
    assert sim.fabric is None
    assert sim.topology_report() is None


@pytest.mark.parametrize(
    "topology", [n for n in topology_names() if n != FLAT_TOPOLOGY]
)
def test_tree_presets_are_engine_identical(topology):
    hashes = []
    for mode in ("scalar", "batched"):
        cfg = SimulationConfig.for_topology(
            topology, budget_level=BudgetLevel.LOW, seed=1
        )
        sim = DataCenterSimulation(cfg, engine_mode=mode)
        sim.add_normal_traffic(rate_rps=40.0)
        sim.add_flood(
            mix=ATTACK_MIX, rate_rps=220.0, num_agents=20, start_s=5.0
        )
        sim.run(20.0)
        hashes.append(sim.run_manifest("tree-eq").deterministic_hash())
    assert hashes[0] == hashes[1]


# ----------------------------------------------------------------------
# The committed headline scenario
# ----------------------------------------------------------------------

HEADLINE_SEED = 3
HEADLINE_RATE_RPS = 300.0
HEADLINE_AGENTS = 8
HEADLINE_DURATION_S = 30.0
HEADLINE_MIX = uniform_mix((COLLA_FILT, K_MEANS))


def _headline_run(engine_mode: str) -> DataCenterSimulation:
    """The rack-concentration scenario on the unprotected pinned tree."""
    cfg = SimulationConfig.for_topology(
        "tree-pinned", budget_level=BudgetLevel.LOW, seed=HEADLINE_SEED
    )
    sim = DataCenterSimulation(cfg, engine_mode=engine_mode)
    sim.add_normal_traffic(rate_rps=40.0)
    sim.add_flood(
        mix=HEADLINE_MIX,
        rate_rps=HEADLINE_RATE_RPS,
        num_agents=HEADLINE_AGENTS,
        start_s=5.0,
        closed_loop=False,
    )
    sim.run(HEADLINE_DURATION_S)
    return sim


@pytest.fixture(scope="module")
def headline_sim() -> DataCenterSimulation:
    return _headline_run("scalar")


def test_headline_rack_violates_while_feed_meter_stays_under(headline_sim):
    sim = headline_sim
    summary = topology_summary(sim.topology_monitor, sim.meter, sim.budget)
    # The facility meter — the only view the flat model has — says the
    # run is fine...
    assert summary["feed_meter"]["violated"] is False
    assert summary["feed_meter"]["peak_power_w"] < summary["feed_meter"]["budget_w"]
    # ...while a rack PDU spent sampled slots over its own budget.
    rack_violations = {
        name: node["violation_slots"]
        for name, node in summary["nodes"].items()
        if node["kind"] == "rack" and node["violation_slots"] > 0
    }
    assert rack_violations, "expected at least one violated rack PDU"
    # No perimeter detection explains it away: the firewall never fired.
    assert sim.firewall.stats.bans == 0


def test_headline_violation_is_attributed_to_the_rack(headline_sim):
    sim = headline_sim
    summary = topology_summary(sim.topology_monitor, sim.meter, sim.budget)
    blamed = summary["deepest_violator"]
    assert blamed is not None
    node = summary["nodes"][blamed]
    assert node["kind"] == "rack"
    # The blamed rack is itself a violated node, and its violations are
    # deepest ones — blame lands on the PDU that would physically trip,
    # not on the row or feed above it.
    assert node["violation_slots"] > 0
    assert node["deepest_violation_slots"] > 0
    assert node["peak_w"] > node["budget_w"]
    # Attribution also lives in the counter table for metrics export.
    counters = sim.engine.obs.counters
    assert counters.get(f"topology.deepest_violation_slots.{blamed}") == (
        node["deepest_violation_slots"]
    )


def test_headline_scenario_is_engine_identical(headline_sim):
    batched = _headline_run("batched")
    assert (
        headline_sim.run_manifest("headline").deterministic_hash()
        == batched.run_manifest("headline").deterministic_hash()
    )


def test_headline_summary_is_json_ready(headline_sim):
    import json

    summary = topology_summary(
        headline_sim.topology_monitor, headline_sim.meter, headline_sim.budget
    )
    round_tripped = json.loads(json.dumps(summary, allow_nan=False))
    assert round_tripped["deepest_violator"] == summary["deepest_violator"]
