"""Unit tests for the Alibaba trace substrate."""

import numpy as np
import pytest

from repro.trace import (
    ClusterTrace,
    SyntheticAlibabaTrace,
    load_machine_usage,
    write_machine_usage,
)


@pytest.fixture
def small_trace():
    return SyntheticAlibabaTrace().generate(
        num_machines=16, duration_s=3600.0, interval_s=60.0, seed=42
    )


class TestClusterTrace:
    def test_shape_and_duration(self, small_trace):
        assert small_trace.num_machines == 16
        assert small_trace.num_intervals == 60
        assert small_trace.duration_s == pytest.approx(3600.0)

    def test_values_in_unit_interval(self, small_trace):
        assert np.all(small_trace.utilization >= 0)
        assert np.all(small_trace.utilization <= 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ClusterTrace(np.array([[1.5]]), 30.0)
        with pytest.raises(ValueError):
            ClusterTrace(np.array([[-0.1]]), 30.0)

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            ClusterTrace(np.zeros(10), 30.0)

    def test_aggregate_load_is_machine_mean(self, small_trace):
        agg = small_trace.aggregate_load()
        assert agg.shape == (60,)
        assert agg[0] == pytest.approx(small_trace.utilization[:, 0].mean())

    def test_normalized_load_peaks_at_one(self, small_trace):
        norm = small_trace.normalized_load()
        assert norm.max() == pytest.approx(1.0)
        assert np.all(norm >= 0)


class TestRateFunction:
    def test_rate_bounds(self, small_trace):
        rate = small_trace.to_rate_function(10.0, 100.0)
        values = [rate(t) for t in np.linspace(0, small_trace.duration_s - 1, 200)]
        assert min(values) >= 10.0
        assert max(values) <= 100.0
        assert max(values) == pytest.approx(100.0)

    def test_looping_past_horizon(self, small_trace):
        rate = small_trace.to_rate_function(10.0, 100.0, loop=True)
        assert rate(small_trace.duration_s + 30.0) == rate(30.0)

    def test_no_loop_falls_back_to_base(self, small_trace):
        rate = small_trace.to_rate_function(10.0, 100.0, loop=False)
        assert rate(small_trace.duration_s + 1) == 10.0

    def test_negative_time_rejected(self, small_trace):
        rate = small_trace.to_rate_function(10.0, 100.0)
        with pytest.raises(ValueError):
            rate(-1.0)

    def test_peak_below_base_rejected(self, small_trace):
        with pytest.raises(ValueError):
            small_trace.to_rate_function(100.0, 10.0)


class TestSyntheticGenerator:
    def test_reproducible_per_seed(self):
        gen = SyntheticAlibabaTrace()
        a = gen.generate(num_machines=4, duration_s=600, interval_s=30, seed=1)
        b = gen.generate(num_machines=4, duration_s=600, interval_s=30, seed=1)
        np.testing.assert_array_equal(a.utilization, b.utilization)

    def test_different_seeds_differ(self):
        gen = SyntheticAlibabaTrace()
        a = gen.generate(num_machines=4, duration_s=600, interval_s=30, seed=1)
        b = gen.generate(num_machines=4, duration_s=600, interval_s=30, seed=2)
        assert not np.array_equal(a.utilization, b.utilization)

    def test_mean_util_near_published_value(self):
        trace = SyntheticAlibabaTrace().generate(
            num_machines=64, duration_s=12 * 3600, interval_s=60, seed=0
        )
        assert trace.summary().mean_util == pytest.approx(0.40, abs=0.08)

    def test_diurnal_component_visible(self):
        # Over 12 h the half-cycle should produce a rising-then-varying
        # envelope: the aggregate load is not flat.
        trace = SyntheticAlibabaTrace(ar1_sigma=0.01, burst_prob=0.0).generate(
            num_machines=32, duration_s=12 * 3600, interval_s=300, seed=0
        )
        agg = trace.aggregate_load()
        assert agg.max() - agg.min() > 0.15

    def test_summary_fields(self):
        trace = SyntheticAlibabaTrace().generate(8, 1200, 60, seed=3)
        s = trace.summary()
        assert s.num_machines == 8
        assert 0 < s.mean_util <= s.p95_util <= s.max_util <= 1


class TestCSVRoundTrip:
    def test_write_then_load(self, tmp_path, small_trace):
        path = str(tmp_path / "machine_usage.csv")
        write_machine_usage(small_trace, path)
        loaded = load_machine_usage(path, interval_s=small_trace.interval_s)
        assert loaded.num_machines == small_trace.num_machines
        # Bin alignment can shift the last column; compare the bulk.
        np.testing.assert_allclose(
            loaded.utilization[:, :-1], small_trace.utilization[:, :-1], atol=5e-3
        )

    def test_max_machines_limit(self, tmp_path, small_trace):
        path = str(tmp_path / "machine_usage.csv")
        write_machine_usage(small_trace, path)
        loaded = load_machine_usage(path, interval_s=60.0, max_machines=4)
        assert loaded.num_machines == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_machine_usage(str(path))
