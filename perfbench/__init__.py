"""perfbench — an outside-in benchmark of the DOPE simulator.

It drives the simulator through its public API only: each timed run is
a fresh subprocess (:mod:`perfbench.worker`) that builds one workload
(:mod:`perfbench.workloads`), runs it, and checks its outputs
(:mod:`perfbench.checks`); the parent (:mod:`perfbench.run`) repeats,
aggregates and prints.  A separate traced run patches the simulator's
layer-boundary methods from the outside (:mod:`perfbench.tracer`) to
split wall time by layer.  See ``perfbench/README.md``.
"""
