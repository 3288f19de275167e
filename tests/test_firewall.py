"""Unit tests for the DDoS-deflate-style rate-limit firewall."""

import pytest

from repro.network import NullFirewall, RateLimitFirewall


def make_firewall(threshold=10.0, poll=1.0, ban=60.0):
    return RateLimitFirewall(
        threshold_rps=threshold, poll_interval_s=poll, ban_duration_s=ban
    )


class TestAdmission:
    def test_admits_below_threshold(self, engine):
        fw = make_firewall()
        fw.attach(engine)
        for _ in range(5):
            assert fw.admit(source_id=1)
        engine.run(until=1.0)  # poll: 5 req over 1 s < 10 rps
        assert fw.admit(source_id=1)
        assert fw.stats.bans == 0

    def test_bans_source_above_threshold(self, engine):
        fw = make_firewall()
        fw.attach(engine)
        for _ in range(20):
            fw.admit(source_id=1)
        engine.run(until=1.0)  # poll sees 20 > 10
        assert 1 in fw.banned_sources()
        assert not fw.admit(source_id=1)
        assert fw.stats.bans == 1

    def test_per_source_accounting(self, engine):
        # The DOPE evasion: the same aggregate spread over many agents
        # never trips the per-source threshold.
        fw = make_firewall()
        fw.attach(engine)
        for i in range(20):
            fw.admit(source_id=i)  # 1 request per source
        engine.run(until=1.0)
        assert fw.stats.bans == 0

    def test_initiating_delay_lets_early_traffic_through(self, engine):
        # Before the first poll, even a blatant flood is admitted —
        # Fig 10's early power spikes under firewall protection.
        fw = make_firewall(poll=10.0)
        fw.attach(engine)
        admitted = sum(fw.admit(source_id=1) for _ in range(1000))
        assert admitted == 1000

    def test_first_detection_time_recorded(self, engine):
        fw = make_firewall(poll=2.0)
        fw.attach(engine)
        for _ in range(100):
            fw.admit(1)
        engine.run(until=2.0)
        assert fw.stats.first_detection_time_s == pytest.approx(2.0)


class TestBanLifecycle:
    def test_ban_expires(self, engine):
        fw = make_firewall(ban=5.0)
        fw.attach(engine)
        for _ in range(50):
            fw.admit(1)
        engine.run(until=1.0)
        assert 1 in fw.banned_sources()
        engine.run(until=6.5)
        assert 1 not in fw.banned_sources()
        assert fw.admit(1)

    def test_banned_sources_set(self, engine):
        fw = make_firewall()
        fw.attach(engine)
        for _ in range(50):
            fw.admit(1)
            fw.admit(2)
        fw.admit(3)
        engine.run(until=1.0)
        assert fw.banned_sources() == {1, 2}

    def test_window_resets_each_poll(self, engine):
        fw = make_firewall(threshold=10.0, poll=1.0)
        fw.attach(engine)
        # 6 requests per poll window (offset from the poll instants) —
        # never above 10/s in any window.  Without the per-poll reset
        # the cumulative count would cross the threshold by t=2.
        stop = engine.every(
            1.0, lambda: [fw.admit(1) for _ in range(6)], start_delay_s=0.5
        )
        engine.run(until=10.0)
        stop()
        assert fw.stats.bans == 0

    def test_rejected_counter(self, engine):
        fw = make_firewall()
        fw.attach(engine)
        for _ in range(50):
            fw.admit(1)
        engine.run(until=1.0)
        fw.admit(1)
        fw.admit(1)
        assert fw.stats.rejected == 2


class TestAttachment:
    def test_double_attach_rejected(self, engine):
        fw = make_firewall()
        fw.attach(engine)
        with pytest.raises(RuntimeError):
            fw.attach(engine)

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimitFirewall(threshold_rps=0)
        with pytest.raises(ValueError):
            RateLimitFirewall(poll_interval_s=-1)


class TestNullFirewall:
    def test_admits_everything(self, engine):
        fw = NullFirewall()
        fw.attach(engine)
        for _ in range(10000):
            assert fw.admit(1)
        engine.run(until=100.0)
        assert fw.stats.bans == 0
        assert fw.stats.admitted == 10000
