"""Outside-in layer tracer.

:meth:`Tracer.install` replaces the public methods listed in
:data:`BOUNDARIES` on their classes with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back exactly.  It must be
installed before the simulator builds anything, because the simulator
binds some of these methods (``nlb.dispatch``, ``collector.sink``,
``engine.schedule``) as callbacks at construction.

Each wrapper is one span.  A stack of open spans gives every layer its
*self time*: a span's duration minus the part of it its child spans
cover.  Time inside the root that no layer span covers is
*unattributed*; blocks the benchmark itself adds inside the root (its
output checks) are *excluded* from every layer.  So, exactly::

    root_s == sum(layer self_s) + unattributed_s + excluded_s

Spans are aggregated in memory as they close; nothing is written until
the run ends.  Private simulator methods are not boundaries, so time in
them counts toward the nearest public span that encloses them — for
example a server's completion callback runs straight from the event
loop and counts as ``sim.engine``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import Recorder
from repro.obs.timers import WallTimers

from .spec import LAYERS

__all__ = ["BOUNDARIES", "Tracer"]

#: ``(layer, module, class, methods)`` — the patched layer boundaries.
#: The ``runner`` layer has no entry: its spans come from the sweep's
#: :class:`~repro.obs.Recorder` timers (:meth:`Tracer.recorder`).
BOUNDARIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    (
        "sim.engine",
        "repro.sim.engine",
        "EventEngine",
        ("run", "schedule", "schedule_at", "try_advance_inline", "try_advance_fluid"),
    ),
    ("sim.fluid", "repro.sim.fluid", "BannedPoolDrain", ("horizon", "absorb")),
    (
        "sim.simulation",
        "repro.sim.simulation",
        "DataCenterSimulation",
        ("__init__", "add_normal_traffic", "add_flood"),
    ),
    ("workloads", "repro.workloads.catalog", "RequestMix", ("sample",)),
    ("workloads", "repro.trace.arrival", "PoissonProcess", ("next_interarrival",)),
    ("workloads", "repro.trace.arrival", "ConstantRateProcess", ("next_interarrival",)),
    (
        "workloads",
        "repro.trace.arrival",
        "ModulatedPoissonProcess",
        ("next_interarrival",),
    ),
    ("workloads", "repro.trace.arrival", "MMPPProcess", ("next_interarrival",)),
    (
        "network.load_balancer",
        "repro.network.load_balancer",
        "NetworkLoadBalancer",
        ("dispatch", "reroute"),
    ),
    (
        "network.load_balancer",
        "repro.network.load_balancer",
        "RoundRobinPolicy",
        ("select",),
    ),
    (
        "network.firewall",
        "repro.network.firewall",
        "RateLimitFirewall",
        ("admit", "poll", "ban_horizon"),
    ),
    ("network.fabric", "repro.network.fabric", "FlowletEcmpFabric", ("select",)),
    ("core.pdf", "repro.core.pdf", "PDFPolicy", ("select",)),
    (
        "cluster.server",
        "repro.cluster.server",
        "Server",
        ("submit", "set_level", "current_power", "power_at_level"),
    ),
    ("cluster.rack", "repro.cluster.rack", "Rack", ("total_power", "per_server_power")),
    ("cluster.topology", "repro.cluster.topology", "TopologyMonitor", ("sample",)),
    ("power.manager", "repro.power.manager", "PowerManagementScheme", ("slot_tick",)),
    ("power.meter", "repro.power.meter", "PowerMeter", ("sample",)),
    ("detect", "repro.detect.scheme", "DynamicSuspectPolicy", ("select",)),
    (
        "detect",
        "repro.detect.features",
        "StreamingFeatureExtractor",
        ("observe_arrival", "observe_completion"),
    ),
    ("detect", "repro.detect.model", "OnlineAnomalyModel", ("observe", "score")),
    ("metrics.collector", "repro.metrics.collector", "MetricsCollector", ("sink", "sink_bulk")),
)

_MISSING = object()


class Tracer:
    """Span stack plus per-layer self-time accumulators.

    Parameters
    ----------
    clock:
        Zero-argument seconds source (default ``time.perf_counter``);
        tests pass a fake.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # Child time covered so far, one entry per open span.  The bottom
        # entry stands for "outside the root" and is never popped.
        self._stack: List[float] = [0.0]
        self._acc: Dict[str, List[float]] = {layer: [0.0, 0] for layer in LAYERS}
        self._patched: List[Tuple[type, str, object]] = []
        self.root_s = 0.0
        self.unattributed_s = 0.0
        self.excluded_s = 0.0
        #: Successful ``try_advance_inline`` calls (one arrival each).
        self.inline_arrivals = 0
        #: Arrivals credited by successful ``try_advance_fluid`` calls.
        self.fluid_arrivals = 0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> Callable:
        """*fn* wrapped in a span of *layer*."""
        clock = self._clock
        stack = self._stack
        acc = self._acc[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed - stack.pop()
                acc[1] += 1
                stack[-1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span of *layer* around the enclosed block."""
        acc = self._acc[layer]
        start = self._clock()
        self._stack.append(0.0)
        try:
            yield
        finally:
            elapsed = self._clock() - start
            acc[0] += elapsed - self._stack.pop()
            acc[1] += 1
            self._stack[-1] += elapsed

    @contextmanager
    def root(self) -> Iterator[None]:
        """The traced region; its uncovered time is ``unattributed_s``."""
        start = self._clock()
        self._stack.append(0.0)
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self.root_s += elapsed
            self.unattributed_s += elapsed - self._stack.pop()
            self._stack[-1] += elapsed

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Benchmark-added work inside the root: charged to no layer."""
        start = self._clock()
        self._stack.append(0.0)
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self._stack.pop()
            self.excluded_s += elapsed
            self._stack[-1] += elapsed

    def recorder(self) -> Recorder:
        """A recorder whose wall timers open ``runner`` spans."""
        recorder = Recorder()
        recorder.timers = _SpanTimers(self)
        return recorder

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary method on its class."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = {
            ("EventEngine", "try_advance_inline"): self._count_inline,
            ("EventEngine", "try_advance_fluid"): self._count_fluid,
        }
        for layer, module, class_name, methods in BOUNDARIES:
            cls = getattr(importlib.import_module(module), class_name)
            for method in methods:
                saved = cls.__dict__.get(method, _MISSING)
                wrapper = self.wrap(
                    layer, getattr(cls, method), hooks.get((class_name, method))
                )
                self._patched.append((cls, method, saved))
                setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        """Restore every patched method exactly as it was."""
        while self._patched:
            cls, method, saved = self._patched.pop()
            if saved is _MISSING:
                delattr(cls, method)
            else:
                setattr(cls, method, saved)

    def _count_inline(self, args: tuple, kwargs: dict, result: object) -> None:
        if result:
            self.inline_arrivals += 1

    def _count_fluid(self, args: tuple, kwargs: dict, result: object) -> None:
        if result:
            self.fluid_arrivals += kwargs["n_events"] if "n_events" in kwargs else args[2]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_times(self) -> Dict[str, Tuple[float, int]]:
        """``{layer: (self_s, calls)}`` for every layer."""
        return {layer: (acc[0], int(acc[1])) for layer, acc in self._acc.items()}

    def layer_metrics(
        self, stats: Dict[str, object], fidelity_err: float
    ) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``.

        *stats* is the run's statistics (:func:`perfbench.workloads`
        ``facts``); *fidelity_err* the fluid-vs-batched error, 0.0 where
        not measured.  Shares divide by the root wall minus excluded
        benchmark work.
        """
        traced_s = self.root_s - self.excluded_s
        metrics: Dict[str, float] = {}
        for layer, (self_s, calls) in self.layer_times().items():
            metrics[f"{layer}.calls"] = calls
            metrics[f"{layer}.self_s"] = self_s
            metrics[f"{layer}.share"] = self_s / traced_s if traced_s > 0.0 else 0.0
        counters = stats["counters"]
        dispatched = counters.get("engine.events_dispatched", 0)
        metrics["sim.engine.heap_events"] = (
            dispatched - self.inline_arrivals - self.fluid_arrivals
        )
        metrics["sim.engine.inline_arrivals"] = self.inline_arrivals
        metrics["sim.fluid.arrivals"] = self.fluid_arrivals
        metrics["sim.fluid.segments"] = counters.get("engine.fluid_segments", 0)
        metrics["sim.fluid.fidelity_err"] = fidelity_err
        metrics["network.load_balancer.forward_ratio"] = _ratio(
            stats["nlb_forwarded"], stats["nlb_forwarded"] + stats["nlb_dropped"]
        )
        metrics["network.firewall.reject_ratio"] = _ratio(
            stats["firewall_rejected"],
            stats["firewall_admitted"] + stats["firewall_rejected"],
        )
        metrics["cluster.server.reject_ratio"] = _ratio(
            stats["server_rejected"], stats["nlb_forwarded"] + stats["server_rejected"]
        )
        metrics["cluster.server.power_evals"] = counters.get(
            "cluster.power_model_evals", 0
        ) + counters.get("cluster.power_model_vector_evals", 0)
        metrics["cluster.server.dvfs_transitions"] = counters.get(
            "cluster.dvfs_transitions", 0
        )
        metrics["power.manager.violation_slots"] = counters.get(
            "power.budget_violation_slots", 0
        )
        metrics["metrics.collector.records"] = stats["records"]
        metrics["runner.overhead_s"] = stats["runner_overhead_s"]
        metrics["trace.unattributed_s"] = self.unattributed_s
        return metrics


class _SpanTimers(WallTimers):
    """Wall timers that also open a ``runner`` span per phase."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        with self._tracer.span("runner"), super().phase(name):
            yield


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
