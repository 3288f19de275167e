"""Unit tests for availability accounting."""

import pytest

from repro.metrics import availability
from repro.network import CompletionRecord, Request, RequestOutcome
from repro.workloads import TEXT_CONT, TrafficClass


def rec(outcome, rt=0.1):
    req = Request(TEXT_CONT, 0, TrafficClass.NORMAL, 0.0)
    return CompletionRecord(req, outcome, rt)


class TestAvailability:
    def test_all_served_in_sla(self):
        report = availability([rec(RequestOutcome.COMPLETED)] * 10, sla_s=1.0)
        assert report.availability == 1.0
        assert report.drop_fraction == 0.0
        assert report.served_within_sla + report.served_late == report.offered

    def test_late_service_counts_against_availability(self):
        records = [rec(RequestOutcome.COMPLETED, rt=0.5)] * 5 + [
            rec(RequestOutcome.COMPLETED, rt=2.0)
        ] * 5
        report = availability(records, sla_s=1.0)
        assert report.availability == pytest.approx(0.5)
        assert report.served_late == 5
        assert report.served_within_sla + report.served_late == report.offered

    def test_drops_count_against_availability(self):
        records = [rec(RequestOutcome.COMPLETED)] * 8 + [
            rec(RequestOutcome.DROPPED_TOKEN),
            rec(RequestOutcome.DROPPED_QUEUE_FULL),
        ]
        report = availability(records, sla_s=1.0)
        assert report.availability == pytest.approx(0.8)
        assert report.drop_fraction == pytest.approx(0.2)

    def test_boundary_exactly_at_sla_is_in(self):
        report = availability([rec(RequestOutcome.COMPLETED, rt=1.0)], sla_s=1.0)
        assert report.availability == 1.0

    def test_empty_population_is_fully_available(self):
        report = availability([], sla_s=1.0)
        assert report.availability == 1.0
        assert report.offered == 0

    def test_invalid_sla_rejected(self):
        with pytest.raises(ValueError):
            availability([], sla_s=0.0)

    def test_str_rendering(self):
        text = str(availability([rec(RequestOutcome.COMPLETED)], sla_s=1.0))
        assert "availability=100.0%" in text
