"""Declared architecture layering for :mod:`repro` (the REP004 DAG).

The package is layered bottom-up: discrete-event kernel and catalog data
at the bottom, the orchestration facade (:mod:`repro.sim.simulation`)
and analysis tooling at the top.  Two subpackages are *split* because
they contain both a bottom and a top layer:

* ``sim`` — the kernel modules (``clock``/``engine``/``events``) are a
  dependency of everything, while the orchestration modules
  (``config``/``simulation``) depend on everything; and
* ``workloads`` — ``catalog`` is pure request-profile data imported by
  the network and cluster substrates, while the generator modules sit
  above the network layer they drive.

Each node below lists the *only* other nodes it may import at runtime
(``if TYPE_CHECKING:`` imports are annotation-only and exempt).  The
mapping must stay acyclic; :func:`validate_layering` topologically
sorts it and raises on any cycle, and the tier-1 static-analysis gate
runs it on every test run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

__all__ = [
    "ALLOWED_IMPORTS",
    "SIM_KERNEL_MODULES",
    "node_for",
    "allowed_imports",
    "validate_layering",
]

#: Modules of the ``sim`` package that form the bottom-layer DES kernel.
SIM_KERNEL_MODULES: FrozenSet[str] = frozenset({"clock", "engine", "events"})

_PLAIN_PACKAGES = frozenset(
    {
        "trace",
        "network",
        "cluster",
        "power",
        "metrics",
        "core",
        "detect",
        "analysis",
        "devtools",
        "runner",
        "obs",
        "faults",
    }
)

#: node -> set of nodes it may import (imports within a node are free).
ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "validation": frozenset(),
    "version": frozenset(),
    # The observability layer sits just above the leaves: everything may
    # record into it, so it may depend on nothing but the leaf modules.
    "obs": frozenset({"validation", "version"}),
    "runner": frozenset({"validation", "version", "obs"}),
    "sim.kernel": frozenset({"validation", "obs"}),
    "trace": frozenset({"validation"}),
    "workloads.catalog": frozenset({"validation"}),
    # devtools reads the obs *contract* (declared counter/timer names)
    # to enforce REP011 and stamps the package version into SARIF
    # output; it still may not import the simulator proper.
    "devtools": frozenset({"validation", "version", "obs"}),
    "network": frozenset({"validation", "obs", "sim.kernel", "workloads.catalog"}),
    "cluster": frozenset(
        {"validation", "obs", "sim.kernel", "workloads.catalog", "network"}
    ),
    "power": frozenset(
        {"validation", "obs", "sim.kernel", "workloads.catalog", "network", "cluster"}
    ),
    "metrics": frozenset(
        {"validation", "obs", "workloads.catalog", "network", "cluster", "power"}
    ),
    "workloads": frozenset(
        {"validation", "obs", "sim.kernel", "trace", "workloads.catalog", "network"}
    ),
    "core": frozenset(
        {
            "validation",
            "obs",
            "workloads.catalog",
            "network",
            "cluster",
            "power",
        }
    ),
    # The online-detection pipeline sits beside core: it inherits core's
    # SuspectPoolScheme (pools and the RPM/DPM slot) and hooks the same
    # network/cluster taps, but stays below sim so schemes remain
    # objects the facade consumes.
    "detect": frozenset(
        {
            "validation",
            "obs",
            "sim.kernel",
            "workloads.catalog",
            "network",
            "cluster",
            "power",
            "core",
        }
    ),
    "sim": frozenset(
        {
            "validation",
            "version",
            "obs",
            "sim.kernel",
            "trace",
            "workloads.catalog",
            "workloads",
            "network",
            "cluster",
            "power",
            "metrics",
            "core",
        }
    ),
    "analysis": frozenset(
        {
            "validation",
            "version",
            "obs",
            "runner",
            "sim.kernel",
            "trace",
            "workloads.catalog",
            "workloads",
            "network",
            "cluster",
            "power",
            "metrics",
            "core",
            "detect",
            "sim",
        }
    ),
    # The chaos layer drives whole simulations through the runner, so it
    # sits beside analysis at the top of the library stack.
    "faults": frozenset(
        {
            "validation",
            "version",
            "obs",
            "runner",
            "sim.kernel",
            "trace",
            "workloads.catalog",
            "workloads",
            "network",
            "cluster",
            "power",
            "metrics",
            "core",
            "detect",
            "sim",
        }
    ),
}

#: The CLI/entry-point layer may import anything (it is imported by nothing).
_ROOT_NODE = "root"


def node_for(module: str) -> Optional[str]:
    """Map a dotted module path inside :mod:`repro` to its layering node.

    Returns ``None`` for modules outside the package (or unknown
    subpackages), which the layering rule then skips.
    """
    parts = module.split(".")
    if not parts or parts[0] != "repro":
        return None
    if len(parts) == 1:
        return _ROOT_NODE
    sub = parts[1]
    if sub == "_validation":
        return "validation"
    if sub == "_version":
        return "version"
    if sub == "sim":
        if len(parts) > 2 and parts[2] in SIM_KERNEL_MODULES:
            return "sim.kernel"
        return "sim"
    if sub == "workloads":
        if len(parts) > 2 and parts[2] == "catalog":
            return "workloads.catalog"
        return "workloads"
    if sub in _PLAIN_PACKAGES:
        return sub
    # Root-level modules: repro.cli, repro.__main__, future flat modules.
    return _ROOT_NODE


def allowed_imports(node: str) -> Optional[FrozenSet[str]]:
    """Nodes that *node* may import; ``None`` means unconstrained (root)."""
    if node == _ROOT_NODE:
        return None
    return ALLOWED_IMPORTS.get(node, frozenset())


def validate_layering() -> List[str]:
    """Topologically sort :data:`ALLOWED_IMPORTS`; raise on any cycle.

    Returns the node names bottom-up, so the output doubles as a
    human-readable layer listing.
    """
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(node: str, chain: List[str]) -> None:
        mark = state.get(node)
        if mark == 1:
            return
        if mark == 0:
            cycle = " -> ".join(chain + [node])
            raise ValueError(f"layering cycle: {cycle}")
        state[node] = 0
        for dep in sorted(ALLOWED_IMPORTS.get(node, frozenset())):
            visit(dep, chain + [node])
        state[node] = 1
        order.append(node)

    for name in sorted(ALLOWED_IMPORTS):
        visit(name, [])
    return order
