"""Unit tests for the metrics collector."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.metrics import MetricsCollector
from repro.network import Request, RequestOutcome
from repro.workloads import COLLA_FILT, TEXT_CONT, TrafficClass


def record(collector, rtype, cls, outcome, t0, t1):
    req = Request(rtype, 0, cls, t0)
    collector.sink(req, outcome, t1)


@pytest.fixture
def populated(collector):
    record(collector, TEXT_CONT, TrafficClass.NORMAL, RequestOutcome.COMPLETED, 0.0, 0.1)
    record(collector, TEXT_CONT, TrafficClass.NORMAL, RequestOutcome.COMPLETED, 5.0, 5.3)
    record(collector, COLLA_FILT, TrafficClass.ATTACK, RequestOutcome.COMPLETED, 5.0, 6.0)
    record(
        collector, COLLA_FILT, TrafficClass.NORMAL,
        RequestOutcome.DROPPED_QUEUE_FULL, 6.0, 6.0,
    )
    record(
        collector, TEXT_CONT, TrafficClass.ATTACK,
        RequestOutcome.DROPPED_FIREWALL, 8.0, 8.0,
    )
    return collector


class TestFiltering:
    def test_by_traffic_class(self, populated):
        normal = populated.filtered(traffic_class=TrafficClass.NORMAL)
        assert len(normal) == 3

    def test_by_type(self, populated):
        assert len(populated.filtered(type_name="colla-filt")) == 2

    def test_by_outcome(self, populated):
        drops = populated.filtered(outcome=RequestOutcome.DROPPED_FIREWALL)
        assert len(drops) == 1

    def test_completed_only(self, populated):
        assert len(populated.filtered(completed_only=True)) == 3

    def test_time_window_uses_arrival_time(self, populated):
        # The request arriving at 5.0 but finishing at 6.0 belongs to
        # the [4, 5.5) window.
        window = populated.filtered(start_s=4.0, end_s=5.5)
        assert len(window) == 2

    def test_combined_filters(self, populated):
        out = populated.filtered(
            traffic_class=TrafficClass.NORMAL,
            type_name="text-cont",
            completed_only=True,
        )
        assert len(out) == 2


class TestResponseTimes:
    def test_only_completed_counted(self, populated):
        times = populated.response_times(traffic_class=TrafficClass.NORMAL)
        np.testing.assert_allclose(sorted(times), [0.1, 0.3])

    def test_empty_selection_gives_empty_array(self, populated):
        times = populated.response_times(type_name="k-means")
        assert times.size == 0


class TestCounting:
    def test_outcome_counts(self, populated):
        counts = populated.outcome_counts()
        assert counts[RequestOutcome.COMPLETED] == 3
        assert counts[RequestOutcome.DROPPED_QUEUE_FULL] == 1
        assert counts[RequestOutcome.DROPPED_FIREWALL] == 1
        assert counts[RequestOutcome.TIMED_OUT] == 0

    def test_total_by_class(self, populated):
        assert populated.total() == 5
        assert populated.total(TrafficClass.ATTACK) == 2

    def test_clear(self, populated):
        populated.clear()
        assert len(populated) == 0


class TestWindowBounds:
    @pytest.mark.parametrize(
        "bounds",
        [
            {"start_s": float("nan")},
            {"end_s": float("nan")},
            {"start_s": float("-inf")},
            {"end_s": float("inf")},
            {"start_s": 6.0, "end_s": 5.0},
        ],
    )
    def test_invalid_window_rejected_by_every_query(self, populated, bounds):
        # A NaN bound used to fail every comparison and so pass every
        # record: filtered(start_s=nan) returned all five.
        with pytest.raises(ValueError):
            populated.filtered(**bounds)
        with pytest.raises(ValueError):
            populated.response_times(**bounds)
        with pytest.raises(ValueError):
            populated.outcome_counts(**bounds)
        with pytest.raises(ValueError):
            populated.drop_attribution(**bounds)

    def test_empty_and_unbounded_windows_still_allowed(self, populated):
        assert populated.filtered(start_s=5.0, end_s=5.0) == []
        assert len(populated.filtered(start_s=None, end_s=None)) == 5


class TestColumnarStorage:
    def test_sink_bulk_rejects_nonpositive_count(self, collector):
        with pytest.raises(ValueError):
            collector.sink_bulk(
                0, "volume_dos", TrafficClass.ATTACK,
                RequestOutcome.DROPPED_FIREWALL, 1.0,
            )
        assert len(collector) == 0

    def test_retained_bytes_per_record(self, collector):
        # The ledger keeps typed columns, not an object per request:
        # with 8-byte ids past 2**31 and distinct float times, one
        # CompletionRecord object per request retained about 189 B.
        n = 20_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(n):
                request = Request(
                    TEXT_CONT, 0, TrafficClass.NORMAL, i * 1e-3,
                    request_id=2**31 + i,
                )
                request.server_id = i % 16
                collector.sink(request, RequestOutcome.COMPLETED, i * 1e-3 + 0.25)
            del request
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(collector) == n
        assert retained / n <= 64
