"""REP011/REP012 — contract-registry rules.

Two subsystems ship central registries that the code must stay in sync
with, and both fail *silently* when it does not:

* **Observability** (:mod:`repro.obs.contract`): ``counters.inc``,
  ``counters.get`` and ``counters.cell`` mint/read any name you hand
  them, so a typo'd counter name is a permanently-zero dashboard
  column, not an error.  REP011 checks every string-literal
  counter/timer name in the tree against the declared registry;
  f-string names are checked by their literal head against the
  declared prefixes.
* **Drop attribution** (:data:`repro.network.request.FAULT_OUTCOMES` /
  ``POLICY_OUTCOMES``): the chaos metrics split every non-completed
  request into scheme-chosen (policy) versus infrastructure-inflicted
  (fault) losses, and the split is only meaningful while the two sets
  partition the outcome enum.  A new ``RequestOutcome`` member that
  joins neither set silently lands in the policy bucket by arithmetic
  (``dropped - dropped_fault``).  REP012 re-derives the partition from
  the AST and flags members in neither set, members in both, set
  entries that name no member, and project-wide ``RequestOutcome.X``
  references to members that do not exist.

Both rules abstain on anything dynamic they cannot resolve (a name
computed at runtime and *not* rooted in a declared prefix is flagged,
because the prefix registry exists precisely to declare those).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..obs.contract import TIMER_NAMES, is_declared_counter
from .engine import Finding, ModuleInfo, ProjectInfo, ProjectRule, Rule, register

__all__ = ["ObsContractRule", "OutcomeContractRule"]

#: Receiver names a counter table goes by (``rec.counters``,
#: ``self._counters``).
_COUNTER_RECEIVERS = frozenset({"counters", "_counters"})

#: Method names on a counter-table receiver that take a counter name.
_COUNTER_METHODS = frozenset({"inc", "get", "cell"})

#: Suffix of class attributes that hold a counter name
#: (``failover_counter = "network.pdf_failover_forwarded"``).
_COUNTER_ATTR_SUFFIX = "_counter"

#: Method names on a ``timers`` receiver that take a phase name.
_TIMER_METHODS = frozenset({"phase"})

#: Enum members excluded from the fault/policy partition: a completed
#: request was not dropped, so it belongs to neither bucket.
_PARTITION_EXEMPT = frozenset({"COMPLETED"})


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    """Name of the object a method is called on (``rec.counters.inc``
    → ``counters``)."""
    return _terminal_name(func.value)


def _fstring_head(node: ast.JoinedStr) -> Optional[str]:
    """Leading literal text of an f-string, or None when it starts with
    an interpolation (fully dynamic — nothing to check statically)."""
    if not node.values:
        return None
    first = node.values[0]
    if isinstance(first, ast.Constant) and isinstance(first.value, str):
        return first.value
    return None


@register
class ObsContractRule(Rule):
    """REP011: counter/timer name literals must be declared.

    Every string literal passed to ``inc``/``get``/``cell`` on a
    ``counters`` or ``_counters`` receiver, and every string assigned
    to a class attribute named ``*_counter``, must appear in
    :data:`repro.obs.contract.COUNTER_NAMES` (f-strings: their literal
    head must start a declared prefix), and every literal passed to
    ``timers.phase`` must appear in ``TIMER_NAMES``.  The registry
    module itself is exempt — it *is* the declaration.
    """

    rule_id = "REP011"
    summary = "counter/timer name not declared in the obs contract registry"

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.module == "repro.obs.contract":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_counter_attrs(module, node)
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            receiver = _receiver_name(node.func)
            method = node.func.attr
            if receiver in _COUNTER_RECEIVERS and method in _COUNTER_METHODS:
                yield from self._check_counter_name(
                    module, self._name_arg(node), f"counters.{method}"
                )
            elif receiver == "timers" and method in _TIMER_METHODS:
                yield from self._check_timer_arg(module, node, method)

    def _check_counter_attrs(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> Iterator[Finding]:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.endswith(
                    _COUNTER_ATTR_SUFFIX
                ):
                    yield from self._check_counter_name(
                        module, stmt.value, f"{node.name}.{target.id}"
                    )

    def _name_arg(self, node: ast.Call) -> Optional[ast.AST]:
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "name":
                return keyword.value
        return None

    def _check_counter_name(
        self, module: ModuleInfo, arg: Optional[ast.AST], site: str
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not is_declared_counter(arg.value):
                yield self.finding(
                    module,
                    arg,
                    f"counter name {arg.value!r} (in {site}) is "
                    "not declared in repro.obs.contract.COUNTER_NAMES — a "
                    "typo here reads/mints a silent zero; declare it or "
                    "fix the spelling",
                )
        elif isinstance(arg, ast.JoinedStr):
            head = _fstring_head(arg)
            if head is None or not is_declared_counter(head):
                shown = head if head is not None else "<dynamic>"
                yield self.finding(
                    module,
                    arg,
                    f"dynamic counter name starting {shown!r} (in "
                    f"{site}) matches no declared prefix in "
                    "repro.obs.contract.COUNTER_PREFIXES; declare the "
                    "family prefix",
                )

    def _check_timer_arg(
        self, module: ModuleInfo, node: ast.Call, method: str
    ) -> Iterator[Finding]:
        arg = self._name_arg(node)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value not in TIMER_NAMES:
                yield self.finding(
                    module,
                    arg,
                    f"timer phase {arg.value!r} (in timers.{method}) is not "
                    "declared in repro.obs.contract.TIMER_NAMES; declare it "
                    "or fix the spelling",
                )


class _OutcomeDeclaration:
    """One ``RequestOutcome`` enum plus its partition sets in a module."""

    def __init__(self, module: ModuleInfo, class_node: ast.ClassDef) -> None:
        self.module = module
        self.class_node = class_node
        self.members: Dict[str, ast.AST] = {}
        for stmt in class_node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        self.members[target.id] = stmt
        self.fault: Dict[str, ast.AST] = {}
        self.policy: Dict[str, ast.AST] = {}
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "FAULT_OUTCOMES":
                    self.fault = self._set_members(stmt.value)
                elif target.id == "POLICY_OUTCOMES":
                    self.policy = self._set_members(stmt.value)

    @staticmethod
    def _set_members(value: ast.AST) -> Dict[str, ast.AST]:
        members: Dict[str, ast.AST] = {}
        for node in ast.walk(value):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "RequestOutcome"
            ):
                members[node.attr] = node
        return members


@register
class OutcomeContractRule(ProjectRule):
    """REP012: FAULT_OUTCOMES ∪ POLICY_OUTCOMES must partition the enum.

    Re-derives the drop-attribution partition from the AST of whichever
    module defines ``RequestOutcome``, then checks totality (every
    non-COMPLETED member in a set), disjointness (no member in both),
    referential integrity of the sets themselves, and — project-wide —
    that every literal ``RequestOutcome.X`` reference names a real
    member.
    """

    rule_id = "REP012"
    summary = "RequestOutcome drop-attribution partition violated"

    def check_project(self, project: ProjectInfo) -> Iterator[Finding]:
        declarations: List[_OutcomeDeclaration] = []
        for module in project.modules:
            for stmt in module.tree.body:
                if isinstance(stmt, ast.ClassDef) and stmt.name == "RequestOutcome":
                    declarations.append(_OutcomeDeclaration(module, stmt))
        if not declarations:
            return
        known_members: Set[str] = set()
        reported: Set[int] = set()
        for decl in declarations:
            known_members.update(decl.members)
            yield from self._check_partition(decl)
            # set entries are checked above; don't re-flag them as refs
            for node in list(decl.fault.values()) + list(decl.policy.values()):
                reported.add(id(node))
        yield from self._check_references(project, known_members, reported)

    def _check_partition(self, decl: _OutcomeDeclaration) -> Iterator[Finding]:
        for name, node in decl.fault.items():
            if name not in decl.members:
                yield self.finding(
                    decl.module,
                    node,
                    f"FAULT_OUTCOMES entry RequestOutcome.{name} names no "
                    "enum member",
                )
        for name, node in decl.policy.items():
            if name not in decl.members:
                yield self.finding(
                    decl.module,
                    node,
                    f"POLICY_OUTCOMES entry RequestOutcome.{name} names no "
                    "enum member",
                )
        for name, node in decl.members.items():
            in_fault = name in decl.fault
            in_policy = name in decl.policy
            if name in _PARTITION_EXEMPT:
                if in_fault or in_policy:
                    yield self.finding(
                        decl.module,
                        node,
                        f"RequestOutcome.{name} is not a drop and must not "
                        "appear in FAULT_OUTCOMES/POLICY_OUTCOMES",
                    )
            elif in_fault and in_policy:
                yield self.finding(
                    decl.module,
                    node,
                    f"RequestOutcome.{name} is in both FAULT_OUTCOMES and "
                    "POLICY_OUTCOMES; drop attribution would double-count it",
                )
            elif not in_fault and not in_policy:
                yield self.finding(
                    decl.module,
                    node,
                    f"RequestOutcome.{name} is in neither FAULT_OUTCOMES nor "
                    "POLICY_OUTCOMES; drop attribution is no longer total — "
                    "add it to exactly one set",
                )

    def _check_references(
        self, project: ProjectInfo, members: Set[str], reported: Set[int]
    ) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "RequestOutcome"
                    and not node.attr.startswith("_")
                    and node.attr not in members
                    and id(node) not in reported
                ):
                    yield self.finding(
                        module,
                        node,
                        f"RequestOutcome.{node.attr} does not exist "
                        f"(known members: {', '.join(sorted(members))})",
                    )
