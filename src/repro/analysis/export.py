"""Result export: CSV and JSON for external plotting tools.

The simulator never plots; it exports.  These functions flatten the
three result artefacts — completion records, power-meter samples and
latency summaries — into formats any plotting stack (matplotlib,
gnuplot, a spreadsheet) consumes directly, so figure generation stays
out of the library.
"""

from __future__ import annotations

import csv
import json
from typing import IO, TYPE_CHECKING, Iterable, Mapping, Optional, Union

from ..metrics.collector import MetricsCollector
from ..metrics.latency import LatencyStats
from ..network.request import CompletionRecord
from ..obs import jsonable
from ..power.meter import PowerMeter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.topology import TopologyMonitor
    from ..power.budget import PowerBudget

__all__ = [
    "records_to_csv",
    "meter_to_csv",
    "stats_to_json",
    "collector_summary",
    "topology_summary",
]

PathOrFile = Union[str, IO[str]]


def _open(target: PathOrFile):
    if isinstance(target, str):
        return open(target, "w", newline=""), True
    return target, False


def records_to_csv(
    records: Iterable[CompletionRecord], target: PathOrFile
) -> int:
    """Write completion records as CSV; returns the row count.

    Columns: ``request_id, type, class, outcome, arrival_s, finish_s,
    response_ms, server, weight``.  Aggregate (fluid-mode) records
    export with ``request_id = -1`` and their cohort weight.
    """
    fh, owned = _open(target)
    try:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "request_id",
                "type",
                "class",
                "outcome",
                "arrival_s",
                "finish_s",
                "response_ms",
                "server",
                "weight",
            ]
        )
        n = 0
        for r in records:
            writer.writerow(
                [
                    r.request_id,
                    r.type_name,
                    r.traffic_class.value,
                    r.outcome.value,
                    f"{r.arrival_time_s:.6f}",
                    f"{r.finish_time_s:.6f}",
                    f"{r.response_time * 1e3:.3f}" if r.completed else "",
                    r.server_id if r.server_id is not None else "",
                    r.weight,
                ]
            )
            n += 1
        return n
    finally:
        if owned:
            fh.close()


def meter_to_csv(meter: PowerMeter, target: PathOrFile) -> int:
    """Write power-meter samples as CSV; returns the row count.

    Columns: ``time_s, power_w, mean_level, battery_soc``.
    """
    fh, owned = _open(target)
    try:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "power_w", "mean_level", "battery_soc"])
        for s in meter.samples:
            writer.writerow(
                [
                    f"{s.time_s:.3f}",
                    f"{s.power_w:.3f}",
                    f"{s.mean_level:.3f}",
                    "" if s.battery_soc is None else f"{s.battery_soc:.4f}",
                ]
            )
        return len(meter.samples)
    finally:
        if owned:
            fh.close()


def stats_to_json(
    stats: Mapping[str, LatencyStats],
    target: PathOrFile,
    extra: Optional[Mapping[str, object]] = None,
) -> None:
    """Serialise named latency summaries (plus optional metadata) as JSON.

    Empty-window statistics carry ``NaN`` fields; those serialise as
    ``null`` (``NaN`` is not JSON), and ``allow_nan=False`` guarantees
    no non-finite value can ever reach the output.
    """
    payload: dict = {"latency": {k: v.as_millis() for k, v in stats.items()}}
    if extra:
        payload["meta"] = dict(extra)
    fh, owned = _open(target)
    try:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    finally:
        if owned:
            fh.close()


def topology_summary(
    monitor: "TopologyMonitor",
    meter: PowerMeter,
    budget: "PowerBudget",
) -> dict:
    """JSON-ready hierarchical power summary of one tree run.

    Pairs the facility-level view (``feed_meter``: what the DC-feed
    meter and its budget say) with the per-node truth (``nodes``: each
    PDU's budget, peak and violation slots) and names the node most
    often found to be the *deepest* violation site.  This is the export
    that makes the paper's blind spot visible: a rack PDU can violate —
    and be correctly blamed — while ``feed_meter.violated`` is false.
    """
    peak_w = meter.peak_power()
    return jsonable(
        {
            "feed_meter": {
                "budget_w": budget.supply_w,
                "peak_power_w": peak_w,
                "violated": budget.violated(peak_w),
            },
            "nodes": monitor.report(),
            "deepest_violator": monitor.deepest_violator(),
        }
    )




def collector_summary(collector: MetricsCollector) -> dict:
    """One-shot JSON-ready summary of an entire collector.

    Computed from the collector's columns; no record rows are built.
    The result is strictly JSON-representable: latency fields of a
    class with zero completions come out as ``None``, never ``NaN``.
    """
    from ..workloads.catalog import TrafficClass

    summary: dict = {"total": collector.total(), "by_class": {}}
    for cls in TrafficClass:
        counts = collector.outcome_counts(traffic_class=cls)
        count = sum(counts.values())
        if not count:
            continue
        summary["by_class"][cls.value] = {
            "count": count,
            "outcomes": {o.value: n for o, n in counts.items() if n},
            "latency": LatencyStats.from_times(
                collector.response_times(traffic_class=cls)
            ).as_millis(),
        }
    return jsonable(summary)
