"""Unit tests for power-driven forwarding (PDF)."""

import pytest

from repro.core import PDFPolicy, SuspectList, split_pools
from repro.detect import DynamicSuspectPolicy, StreamingFeatureExtractor
from repro.network import Request
from repro.obs import Recorder
from repro.sim import SimulationClock
from repro.workloads import (
    ALL_TYPES,
    COLLA_FILT,
    K_MEANS,
    TEXT_CONT,
    WORD_COUNT,
    TrafficClass,
)


@pytest.fixture
def suspect_list(power_model):
    return SuspectList.from_model(ALL_TYPES, power_model)


def req(rtype):
    return Request(rtype, 0, TrafficClass.NORMAL, 0.0)


class TestSplitPools:
    def test_last_servers_become_suspect_pool(self, rack):
        innocent, suspect = split_pools(rack.servers, 1)
        assert [s.server_id for s in innocent] == [0, 1, 2]
        assert [s.server_id for s in suspect] == [3]

    def test_two_server_suspect_pool(self, rack):
        innocent, suspect = split_pools(rack.servers, 2)
        assert [s.server_id for s in suspect] == [2, 3]

    def test_must_leave_innocent_servers(self, rack):
        with pytest.raises(ValueError):
            split_pools(rack.servers, 4)

    def test_zero_pool_rejected(self, rack):
        with pytest.raises(ValueError):
            split_pools(rack.servers, 0)


class TestRouting:
    def test_suspect_urls_to_suspect_pool(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, rack.servers, 1)
        for rtype in (COLLA_FILT, K_MEANS, WORD_COUNT):
            server = policy.select(req(rtype), rack.servers)
            assert server.server_id == 3

    def test_innocent_urls_to_innocent_pool(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, rack.servers, 1)
        for _ in range(6):
            server = policy.select(req(TEXT_CONT), rack.servers)
            assert server.server_id in {0, 1, 2}

    def test_round_robin_within_pools(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, rack.servers, 2)
        picks = [policy.select(req(COLLA_FILT), rack.servers).server_id for _ in range(4)]
        assert picks == [2, 3, 2, 3]
        picks = [policy.select(req(TEXT_CONT), rack.servers).server_id for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_counters(self, rack, suspect_list):
        obs = Recorder()
        policy = PDFPolicy(suspect_list, rack.servers, 1, obs=obs)
        policy.select(req(COLLA_FILT), rack.servers)
        policy.select(req(TEXT_CONT), rack.servers)
        policy.select(req(TEXT_CONT), rack.servers)
        assert obs.counters.get("network.pdf_suspect_forwarded") == 1
        assert obs.counters.get("network.pdf_innocent_forwarded") == 2

    def test_unprofiled_url_goes_innocent(self, rack, suspect_list):
        from repro.workloads import RequestType

        new_type = RequestType("new", "/api/new", 0.01, 0.5, 0.5, 0.5)
        policy = PDFPolicy(suspect_list, rack.servers, 1)
        assert policy.select(req(new_type), rack.servers).server_id != 3

    def test_suspect_server_ids(self, rack, suspect_list):
        policy = PDFPolicy(suspect_list, rack.servers, 2)
        assert policy.suspect_server_ids == [2, 3]


def pdf_policy(rack, obs):
    """PDF over a 2 + 2 carve; Colla-Filt is suspect by its URL."""
    suspect_list = SuspectList.from_model(ALL_TYPES, rack.power_model)
    policy = PDFPolicy(suspect_list, rack.servers, 2, obs=obs)
    return policy, req(COLLA_FILT), "network.pdf_failover_forwarded"


def dynamic_policy(rack, obs):
    """The online detector's policy over the same carve; source 7 is
    quarantined."""
    policy = DynamicSuspectPolicy(
        StreamingFeatureExtractor(ALL_TYPES),
        rack.servers[:2],
        rack.servers[2:],
        SimulationClock(),
        obs=obs,
    )
    policy.set_suspects(frozenset({7}))
    suspect = Request(TEXT_CONT, 7, TrafficClass.NORMAL, 0.0)
    return policy, suspect, "detect.failover_forwarded"


@pytest.mark.parametrize("make", [pdf_policy, dynamic_policy], ids=["pdf", "dynamic"])
class TestFailover:
    def test_crashed_server_skipped_without_failover(self, rack, make):
        obs = Recorder()
        policy, suspect, counter = make(rack, obs)
        rack.servers[3].fail()
        picks = {policy.select(suspect, rack.servers).server_id for _ in range(4)}
        assert picks == {2}
        assert obs.counters.get(counter) == 0

    def test_dead_pool_fails_over_to_the_other_pool(self, rack, make):
        obs = Recorder()
        policy, suspect, counter = make(rack, obs)
        rack.servers[2].fail()
        rack.servers[3].fail()
        assert policy.select(suspect, rack.servers).server_id in {0, 1}
        assert obs.counters.get(counter) == 1
