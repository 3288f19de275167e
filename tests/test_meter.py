"""Unit tests for the power meter."""

import numpy as np
import pytest

from repro.network import Request
from repro.power import Battery, PowerMeter
from repro.workloads import COLLA_FILT, TrafficClass


class TestSampling:
    def test_samples_at_interval(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.run(until=5.0)
        assert len(meter) == 6  # t=0 (immediate) plus 1..5
        np.testing.assert_allclose(meter.times(), [0, 1, 2, 3, 4, 5])

    def test_sample_captures_power_change(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()

        def load():
            for s in rack.servers:
                for i in range(8):
                    s.submit(Request(COLLA_FILT, i, TrafficClass.ATTACK, engine.now))

        engine.schedule(2.5, load)
        engine.schedule(2.6, meter.sample)  # mid-burst snapshot
        engine.run(until=4.0)
        powers = meter.powers()
        assert powers[0] == pytest.approx(152.0)
        assert meter.peak_power() > 350.0

    def test_mean_level_tracks_dvfs(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.schedule(1.5, lambda: rack.set_all_levels(0))
        engine.run(until=3.0)
        levels = meter.mean_levels()
        assert levels[0] == 12.0
        assert levels[-1] == 0.0

    def test_battery_soc_sampled(self, engine, rack):
        battery = Battery.for_rack(rack.nameplate_w)
        meter = PowerMeter(engine, rack, interval_s=1.0, battery=battery)
        meter.start()
        engine.schedule(1.5, lambda: battery.discharge(400.0, 60.0))
        engine.run(until=3.0)
        socs = meter.socs()
        assert socs[0] == 1.0
        assert socs[-1] == pytest.approx(0.5)

    def test_socs_nan_without_battery(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.run(until=1.0)
        assert np.all(np.isnan(meter.socs()))


class TestStatistics:
    def test_peak_and_mean(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.run(until=3.0)
        assert meter.peak_power() == pytest.approx(152.0)
        assert meter.mean_power() == pytest.approx(152.0)

    def test_empty_meter_raises(self, engine, rack):
        meter = PowerMeter(engine, rack)
        with pytest.raises(RuntimeError):
            meter.peak_power()

    def test_time_over_threshold(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.run(until=10.0)
        assert meter.time_over(100.0) == pytest.approx(10.0)
        assert meter.time_over(500.0) == 0.0

    def test_window_view(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.run(until=10.0)
        view = meter.window(3.0, 6.0)
        np.testing.assert_allclose(view.times(), [3, 4, 5])


class TestLifecycle:
    def test_double_start_rejected(self, engine, rack):
        meter = PowerMeter(engine, rack)
        meter.start()
        with pytest.raises(RuntimeError):
            meter.start()

    def test_stop_halts_sampling(self, engine, rack):
        meter = PowerMeter(engine, rack, interval_s=1.0)
        meter.start()
        engine.run(until=2.0)
        meter.stop()
        engine.run(until=10.0)
        assert meter.times()[-1] == 2.0
