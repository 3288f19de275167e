"""Metrics collector: the terminal sink for every request.

The collector implements both the server completion-sink and the NLB
drop-sink signatures, so every request's fate — served, firewalled,
shaped away or queue-overflowed — lands in one ledger.

The ledger is columnar: one row of typed NumPy columns per record
(request id, type/class/outcome codes, arrival and finish times, server
id, weight) instead of one Python object per request, because a long
trace replay sinks millions of requests and the columns hold a row in
40 bytes.  Queries compute with NumPy on the columns;
:class:`~repro.network.request.CompletionRecord` rows are built only
when a caller asks for them (:attr:`MetricsCollector.records`,
:meth:`MetricsCollector.filtered`).
"""

from __future__ import annotations

import math
import struct
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .._validation import require
from ..network.request import (
    FAULT_OUTCOMES,
    CompletionRecord,
    Request,
    RequestOutcome,
)
from ..workloads.catalog import TrafficClass

__all__ = ["MetricsCollector"]


class _Columns(NamedTuple):
    """The ledger, one array per column, in the packed row's field order."""

    request_id: np.ndarray  # -1 for aggregates
    arrival_s: np.ndarray
    finish_s: np.ndarray
    weight: np.ndarray
    server_id: np.ndarray  # -1 for none
    type_code: np.ndarray  # index into the collector's type names
    class_code: np.ndarray  # index into TrafficClass
    outcome_code: np.ndarray  # index into RequestOutcome


#: One ledger row as the sink packs it: 40 bytes, its fields in
#: decreasing size so the native layout needs no padding.  ``_seal``
#: reads a block of them back as NumPy records and splits the columns.
_ROW = struct.Struct("@qddqihbb")
_ROW_DTYPE = np.dtype(
    list(zip(_Columns._fields, ("=i8", "=f8", "=f8", "=i8", "=i4", "=i2", "i1", "i1")))
)
_ROW_BYTES = _ROW.size
_pack_row = _ROW.pack_into
#: Bytes of the block rows are packed into before they are split into
#: the columns: 1024 rows.
_BLOCK_BYTES = 1024 * _ROW_BYTES

_CLASSES = tuple(TrafficClass)
_OUTCOMES = tuple(RequestOutcome)
_CLASS_CODES = {c.value: code for code, c in enumerate(_CLASSES)}
_OUTCOME_CODES = {o.value: code for code, o in enumerate(_OUTCOMES)}
_COMPLETED = _OUTCOMES.index(RequestOutcome.COMPLETED)
_FAULT = np.array([o in FAULT_OUTCOMES for o in _OUTCOMES])


def _code(members: tuple, member: object) -> int:
    """Code of *member* by identity; -1 (matches no row) for a stranger."""
    for code, candidate in enumerate(members):
        if candidate is member:
            return code
    return -1


class MetricsCollector:
    """Columnar ledger of every terminal outcome of one run."""

    def __init__(self) -> None:
        self.clear()

    # ------------------------------------------------------------------
    # Sink interfaces
    # ------------------------------------------------------------------
    def sink(self, request: Request, outcome: RequestOutcome, time_s: float) -> None:
        """Record the terminal *outcome* of *request* at *time_s*.

        This single method satisfies both the server ``completion_sink``
        and the NLB ``drop_sink`` contracts.
        """
        # The row is packed now, while the request is hot in cache: a
        # buffered tuple read back at a flush costs a cache miss per
        # field.  Codes are keyed on enum value strings because hashing
        # the member runs Enum.__hash__ in Python.
        try:
            type_code = self._type_codes[request.rtype.name]
        except KeyError:
            type_code = self._add_type(request.rtype.name)
        server_id = request.server_id
        offset = self._offset
        _pack_row(
            self._block,
            offset,
            request.request_id,
            request.arrival_time_s,
            time_s,
            1,
            -1 if server_id is None else server_id,
            type_code,
            _CLASS_CODES[request.traffic_class._value_],
            _OUTCOME_CODES[outcome._value_],
        )
        offset += _ROW_BYTES
        self._offset = offset
        if offset == _BLOCK_BYTES:
            self._seal()

    def sink_bulk(
        self,
        count: int,
        type_name: str,
        traffic_class: TrafficClass,
        outcome: RequestOutcome,
        time_s: float,
    ) -> None:
        """Record *count* identical terminals as one aggregate record.

        The fluid-drain path lands here: a whole analytically absorbed
        cohort becomes a single weighted row (``request_id == -1``, no
        server) instead of *count* per-request ones.  Count-style
        queries (:meth:`outcome_counts`, :meth:`drop_attribution`,
        :meth:`total`, availability) sum weights, so over the whole run
        the aggregate counts exactly like its expansion.  Its times do
        not match the expansion's: the row carries *time_s* (the
        segment's end) as both arrival and finish, so an arrival-time
        window that cuts the segment counts the whole cohort on the side
        of its end.
        """
        if count < 1:
            raise ValueError(f"aggregate count must be >= 1, got {count}")
        try:
            type_code = self._type_codes[type_name]
        except KeyError:
            type_code = self._add_type(type_name)
        offset = self._offset
        _pack_row(
            self._block,
            offset,
            -1,
            time_s,
            time_s,
            count,
            -1,
            type_code,
            _CLASS_CODES[traffic_class._value_],
            _OUTCOME_CODES[outcome._value_],
        )
        offset += _ROW_BYTES
        self._offset = offset
        if offset == _BLOCK_BYTES:
            self._seal()

    def _add_type(self, name: str) -> int:
        """Give the new type *name* the next type code."""
        code = self._type_codes[name] = len(self._type_names)
        self._type_names.append(name)
        return code

    def _seal(self) -> None:
        """Split the packed rows of the block into the columns."""
        rows = np.frombuffer(self._block, _ROW_DTYPE, count=self._offset // _ROW_BYTES)
        for name, chunks in zip(_Columns._fields, self._chunks):
            chunks.append(rows[name].copy())
        self._offset = 0

    def _columns(self) -> _Columns:
        """Every column as one contiguous array.

        Merges one column at a time, so the transient copy is never
        larger than the widest column.
        """
        if self._offset:
            self._seal()
        for chunks in self._chunks:
            if len(chunks) > 1:
                chunks[:] = [np.concatenate(chunks)]
        return _Columns(*(chunks[0] for chunks in self._chunks))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _select(
        self,
        traffic_class: Optional[TrafficClass] = None,
        type_name: Optional[str] = None,
        outcome: Optional[RequestOutcome] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
        completed_only: bool = False,
    ) -> Tuple[_Columns, Optional[np.ndarray]]:
        """The columns and the row mask of every given criterion.

        The mask is ``None`` when no criterion is given (every row).
        """
        for name, bound in (("start_s", start_s), ("end_s", end_s)):
            require(
                bound is None or math.isfinite(bound),
                f"{name} must be finite or None, got {bound!r}",
            )
        if start_s is not None and end_s is not None:
            require(start_s <= end_s, f"start_s={start_s!r} > end_s={end_s!r}")
        columns = self._columns()
        tests = []
        if traffic_class is not None:
            tests.append(columns.class_code == _code(_CLASSES, traffic_class))
        if type_name is not None:
            tests.append(columns.type_code == self._type_codes.get(type_name, -1))
        if outcome is not None:
            tests.append(columns.outcome_code == _code(_OUTCOMES, outcome))
        if completed_only:
            tests.append(columns.outcome_code == _COMPLETED)
        if start_s is not None:
            tests.append(columns.arrival_s >= start_s)
        if end_s is not None:
            tests.append(columns.arrival_s < end_s)
        if not tests:
            return columns, None
        mask = tests[0]
        for test in tests[1:]:
            mask &= test
        return columns, mask

    def _rows(
        self, columns: _Columns, mask: Optional[np.ndarray]
    ) -> List[CompletionRecord]:
        """Build the :class:`CompletionRecord` of every selected row."""
        if mask is not None:
            columns = _Columns(*(column[mask] for column in columns))
        ids, arrivals, finishes, weights, servers, types, classes, outcomes = (
            column.tolist() for column in columns
        )
        return list(
            map(
                CompletionRecord.from_fields,
                ids,
                map(self._type_names.__getitem__, types),
                map(_CLASSES.__getitem__, classes),
                map(_OUTCOMES.__getitem__, outcomes),
                arrivals,
                finishes,
                [None if server < 0 else server for server in servers],
                weights,
            )
        )

    @property
    def records(self) -> List[CompletionRecord]:
        """Every record as a freshly built row, in sink order."""
        return self._rows(*self._select())

    def filtered(
        self,
        traffic_class: Optional[TrafficClass] = None,
        type_name: Optional[str] = None,
        outcome: Optional[RequestOutcome] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
        completed_only: bool = False,
    ) -> List[CompletionRecord]:
        """Records matching every given criterion, as freshly built rows.

        Time filtering is on *arrival* time, so a window captures the
        requests offered during it regardless of when they finished.
        Window bounds must be finite with ``start_s <= end_s``; ``None``
        leaves that side unbounded.  The same holds for every query.
        """
        return self._rows(
            *self._select(
                traffic_class=traffic_class,
                type_name=type_name,
                outcome=outcome,
                start_s=start_s,
                end_s=end_s,
                completed_only=completed_only,
            )
        )

    def response_times(
        self,
        traffic_class: Optional[TrafficClass] = None,
        type_name: Optional[str] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> np.ndarray:
        """Response times (seconds) of completed matching requests."""
        columns, mask = self._select(
            traffic_class=traffic_class,
            type_name=type_name,
            start_s=start_s,
            end_s=end_s,
            completed_only=True,
        )
        return columns.finish_s[mask] - columns.arrival_s[mask]

    def _weighted_outcomes(
        self,
        traffic_class: Optional[TrafficClass],
        start_s: Optional[float],
        end_s: Optional[float],
    ) -> np.ndarray:
        """Summed weight per outcome code over the matching rows."""
        columns, mask = self._select(
            traffic_class=traffic_class, start_s=start_s, end_s=end_s
        )
        outcomes, weights = columns.outcome_code, columns.weight
        if mask is not None:
            outcomes, weights = outcomes[mask], weights[mask]
        counts = np.zeros(len(_OUTCOMES), dtype=np.int64)
        np.add.at(counts, outcomes, weights)
        return counts

    def outcome_counts(
        self,
        traffic_class: Optional[TrafficClass] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> dict:
        """Histogram of outcomes over the matching records."""
        counts = self._weighted_outcomes(traffic_class, start_s, end_s)
        return dict(zip(_OUTCOMES, counts.tolist()))

    def drop_attribution(
        self,
        traffic_class: Optional[TrafficClass] = None,
        start_s: Optional[float] = None,
        end_s: Optional[float] = None,
    ) -> dict:
        """Split drops into policy-caused vs fault-caused counts.

        Policy drops are deliberate rejections (firewall, token bucket,
        queue overflow/timeout); fault drops are losses the chaos layer
        inflicted (server crash mid-service, no healthy backend).  The
        distinction keeps "the scheme shed load" separate from "the
        infrastructure failed" in chaos-run reports.
        """
        counts = self._weighted_outcomes(traffic_class, start_s, end_s)
        fault = int(counts[_FAULT].sum())
        policy = int(counts.sum()) - int(counts[_COMPLETED]) - fault
        return {"dropped_policy": policy, "dropped_fault": fault}

    def total(self, traffic_class: Optional[TrafficClass] = None) -> int:
        """Number of matching requests (aggregate records count fully)."""
        columns, mask = self._select(traffic_class=traffic_class)
        weights = columns.weight if mask is None else columns.weight[mask]
        return int(weights.sum())

    def clear(self) -> None:
        """Drop all records (reuse across warm-up phases)."""
        #: Packed rows not yet split into the columns, and their bytes.
        self._block = bytearray(_BLOCK_BYTES)
        self._offset = 0
        #: Per column, its blocks in sink order (merged on query).
        self._chunks: Tuple[List[np.ndarray], ...] = tuple(
            [np.empty(0, _ROW_DTYPE[name])] for name in _Columns._fields
        )
        #: Type names by type code, and the reverse.
        self._type_names: List[str] = []
        self._type_codes: Dict[str, int] = {}

    def __len__(self) -> int:
        return self._offset // _ROW_BYTES + sum(len(c) for c in self._chunks[0])
