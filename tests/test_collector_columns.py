"""The columnar collector against a plain record list (Hypothesis).

:class:`ReferenceCollector` keeps one :class:`CompletionRecord` per
sink call and answers every query with the per-record loops the
object-list collector used; its query bodies are kept verbatim as the
reference.  Random interleavings of ``sink``/``sink_bulk`` calls go into
both, with queries in between (a query merges the columns' blocks, so
the interleaving also exercises merge-then-append), and every query must
agree exactly: rows, filters, response times, counts, CSV bytes, the
JSON summary and availability.
"""

import io
from typing import List
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import collector_summary, records_to_csv
from repro.metrics import MetricsCollector, availability
from repro.metrics import collector as collector_module
from repro.metrics.latency import LatencyStats
from repro.network.request import (
    FAULT_OUTCOMES,
    CompletionRecord,
    Request,
    RequestOutcome,
)
from repro.obs import jsonable
from repro.workloads import COLLA_FILT, K_MEANS, TEXT_CONT, VOLUME_DOS, TrafficClass

TYPES = (COLLA_FILT, K_MEANS, TEXT_CONT, VOLUME_DOS)
FIELDS = (
    "request_id",
    "type_name",
    "traffic_class",
    "outcome",
    "arrival_time_s",
    "finish_time_s",
    "server_id",
    "weight",
)


class ReferenceCollector:
    """The object-list collector: one record per sink, loop queries."""

    def __init__(self) -> None:
        self.records: List[CompletionRecord] = []

    def sink(self, request, outcome, time_s):
        self.records.append(CompletionRecord(request, outcome, time_s))

    def sink_bulk(self, count, type_name, traffic_class, outcome, time_s):
        self.records.append(
            CompletionRecord.aggregate(
                count, type_name, traffic_class, outcome, time_s
            )
        )

    def filtered(
        self,
        traffic_class=None,
        type_name=None,
        outcome=None,
        start_s=None,
        end_s=None,
        completed_only=False,
    ):
        out = []
        for r in self.records:
            if traffic_class is not None and r.traffic_class is not traffic_class:
                continue
            if type_name is not None and r.type_name != type_name:
                continue
            if outcome is not None and r.outcome is not outcome:
                continue
            if completed_only and not r.completed:
                continue
            if start_s is not None and r.arrival_time_s < start_s:
                continue
            if end_s is not None and r.arrival_time_s >= end_s:
                continue
            out.append(r)
        return out

    def response_times(
        self, traffic_class=None, type_name=None, start_s=None, end_s=None
    ):
        recs = self.filtered(
            traffic_class=traffic_class,
            type_name=type_name,
            start_s=start_s,
            end_s=end_s,
            completed_only=True,
        )
        return np.array([r.response_time for r in recs])

    def outcome_counts(self, traffic_class=None, start_s=None, end_s=None):
        counts = {outcome: 0 for outcome in RequestOutcome}
        for r in self.filtered(
            traffic_class=traffic_class, start_s=start_s, end_s=end_s
        ):
            counts[r.outcome] += r.weight
        return counts

    def drop_attribution(self, traffic_class=None, start_s=None, end_s=None):
        policy = fault = 0
        for r in self.filtered(
            traffic_class=traffic_class, start_s=start_s, end_s=end_s
        ):
            if r.outcome is RequestOutcome.COMPLETED:
                continue
            if r.outcome in FAULT_OUTCOMES:
                fault += r.weight
            else:
                policy += r.weight
        return {"dropped_policy": policy, "dropped_fault": fault}

    def total(self, traffic_class=None):
        if traffic_class is None:
            return sum(r.weight for r in self.records)
        return sum(
            r.weight for r in self.records if r.traffic_class is traffic_class
        )

    def __len__(self):
        return len(self.records)


def reference_summary(collector) -> dict:
    """The record-loop ``collector_summary``, kept as the reference."""
    summary: dict = {"total": collector.total(), "by_class": {}}
    for cls in TrafficClass:
        records = collector.filtered(traffic_class=cls)
        if not records:
            continue
        outcomes = {o.value: 0 for o in RequestOutcome}
        for r in records:
            outcomes[r.outcome.value] += r.weight
        summary["by_class"][cls.value] = {
            "count": sum(r.weight for r in records),
            "outcomes": {k: v for k, v in outcomes.items() if v},
            "latency": LatencyStats.from_records(records).as_millis(),
        }
    return jsonable(summary)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
classes = st.sampled_from(tuple(TrafficClass))
outcomes = st.sampled_from(tuple(RequestOutcome))

sink_op = st.tuples(
    st.just("sink"),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.sampled_from(TYPES),
    classes,
    outcomes,
    times,
    times,
    st.one_of(st.none(), st.integers(min_value=0, max_value=2**31 - 1)),
)
bulk_op = st.tuples(
    st.just("bulk"),
    st.integers(min_value=1, max_value=10**12),
    st.sampled_from([t.name for t in TYPES]),
    classes,
    outcomes,
    times,
)
query_op = st.tuples(st.just("query"))
operations = st.lists(st.one_of(sink_op, sink_op, bulk_op, query_op), max_size=60)


@st.composite
def windows(draw):
    start = draw(st.one_of(st.none(), times))
    end = draw(st.one_of(st.none(), times))
    if start is not None and end is not None and start > end:
        start, end = end, start
    return start, end


selections = st.fixed_dictionaries(
    {
        "traffic_class": st.one_of(st.none(), classes),
        "type_name": st.one_of(
            st.none(), st.sampled_from([t.name for t in TYPES] + ["no-such-type"])
        ),
        "outcome": st.one_of(st.none(), outcomes),
        "completed_only": st.booleans(),
    }
)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def fields(record):
    return tuple(getattr(record, name) for name in FIELDS)


def assert_same_rows(rows, expected):
    assert [fields(r) for r in rows] == [fields(r) for r in expected]
    for row, ref in zip(rows, expected):
        # Plain Python values, never NumPy scalars.
        assert [type(v) for v in fields(row)] == [type(v) for v in fields(ref)]


def assert_same_plain(value, expected):
    assert value == expected
    if isinstance(expected, dict):
        assert [type(v) for v in value.values()] == [
            type(v) for v in expected.values()
        ]
        assert list(value) == list(expected)
    else:
        assert type(value) is type(expected)


def csv_text(records):
    buffer = io.StringIO()
    records_to_csv(records, buffer)
    return buffer.getvalue()


def assert_equivalent(collector, reference, selection, window):
    start_s, end_s = window
    assert len(collector) == len(reference)
    assert_same_rows(collector.records, reference.records)
    for name, value in selection.items():
        assert_same_rows(
            collector.filtered(**{name: value}), reference.filtered(**{name: value})
        )
    assert_same_rows(
        collector.filtered(start_s=start_s, end_s=end_s, **selection),
        reference.filtered(start_s=start_s, end_s=end_s, **selection),
    )
    for cls in (None, selection["traffic_class"]):
        times_s = collector.response_times(
            traffic_class=cls,
            type_name=selection["type_name"],
            start_s=start_s,
            end_s=end_s,
        )
        expected = reference.response_times(
            traffic_class=cls,
            type_name=selection["type_name"],
            start_s=start_s,
            end_s=end_s,
        )
        assert times_s.dtype == expected.dtype
        assert times_s.tolist() == expected.tolist()
        for query in ("outcome_counts", "drop_attribution"):
            assert_same_plain(
                getattr(collector, query)(cls, start_s, end_s),
                getattr(reference, query)(cls, start_s, end_s),
            )
        assert_same_plain(collector.total(cls), reference.total(cls))
    assert csv_text(collector.records) == csv_text(reference.records)
    assert collector_summary(collector) == reference_summary(reference)
    for sla_s in (0.5, 5.0):
        assert availability(
            collector.filtered(
                traffic_class=selection["traffic_class"], start_s=start_s, end_s=end_s
            ),
            sla_s=sla_s,
        ) == availability(
            reference.filtered(
                traffic_class=selection["traffic_class"], start_s=start_s, end_s=end_s
            ),
            sla_s=sla_s,
        )


def replay(ops, collector, reference, selection, window):
    for op in ops:
        if op[0] == "sink":
            _, request_id, rtype, cls, outcome, arrival, finish, server = op
            request = Request(rtype, 0, cls, arrival, request_id=request_id)
            request.server_id = server
            collector.sink(request, outcome, finish)
            reference.sink(request, outcome, finish)
        elif op[0] == "bulk":
            _, count, type_name, cls, outcome, time_s = op
            collector.sink_bulk(count, type_name, cls, outcome, time_s)
            reference.sink_bulk(count, type_name, cls, outcome, time_s)
        else:
            assert_equivalent(collector, reference, selection, window)
    assert_equivalent(collector, reference, selection, window)


@settings(max_examples=150, deadline=None)
@given(
    ops=operations,
    block_rows=st.sampled_from([1, 2, 5, 1024]),
    selection=selections,
    window=windows(),
)
def test_columns_answer_like_the_record_list(ops, block_rows, selection, window):
    # Small blocks make a short sequence span several column blocks.
    block_bytes = block_rows * collector_module._ROW_BYTES
    with mock.patch.object(collector_module, "_BLOCK_BYTES", block_bytes):
        replay(ops, MetricsCollector(), ReferenceCollector(), selection, window)


@settings(max_examples=20, deadline=None)
@given(ops=operations, selection=selections, window=windows())
def test_clear_then_reuse_matches_a_fresh_reference(ops, selection, window):
    collector = MetricsCollector()
    replay(ops, collector, ReferenceCollector(), selection, window)
    collector.clear()
    assert len(collector) == 0
    replay(ops, collector, ReferenceCollector(), selection, window)


def test_empty_collector_queries():
    collector, reference = MetricsCollector(), ReferenceCollector()
    selection = {
        "traffic_class": None,
        "type_name": None,
        "outcome": None,
        "completed_only": False,
    }
    assert_equivalent(collector, reference, selection, (None, None))
    assert collector.response_times().dtype == np.float64
