"""Tier-1 gate and unit tests for the ``repro.devtools`` lint suite.

The first test is the gate: the whole ``src/repro`` tree must lint
clean.  The rest pin down each rule against fixtures under
``tests/devtools_fixtures/`` — every line carrying a ``# VIOLATION``
marker must produce exactly one finding for the rule under test, and
the matching ``*_clean.py`` twin must produce none.  The last two
tests keep every tree CI's ``ruff check`` step covers free of unused
imports, so that step's F401 findings surface in tier-1 too, and fail
on an option of ``src/repro`` that nothing passes.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import (
    ALLOWED_IMPORTS,
    ProjectInfo,
    build_rules,
    lint_paths,
    lint_source,
    load_module,
    node_for,
    registered_rules,
    render_json,
    render_text,
    validate_layering,
)
from repro.devtools.engine import infer_module_name, iter_python_files
from repro.devtools.lint import main as lint_main
from repro.devtools.reachability import _CallGraph

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "devtools_fixtures"

ALL_RULE_IDS = [
    "REP001",
    "REP002",
    "REP003",
    "REP004",
    "REP005",
    "REP006",
    "REP007",
    "REP008",
    "REP009",
    "REP010",
    "REP011",
    "REP012",
]


def violation_lines(source: str) -> list:
    """Line numbers carrying a ``# VIOLATION`` marker."""
    return [
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if "# VIOLATION" in text
    ]


def lint_fixture(name: str, rule_id: str, module: str) -> tuple:
    path = FIXTURES / name
    source = path.read_text(encoding="utf-8")
    findings = lint_source(
        source, path=str(path), module=module, rules=[rule_id]
    )
    return source, findings


# ---------------------------------------------------------------------------
# The gate: src/repro must be clean under every rule.
# ---------------------------------------------------------------------------


def test_src_repro_lints_clean():
    findings = lint_paths([str(SRC_REPRO)])
    assert findings == [], "\n" + render_text(findings)


def test_rep010_finds_the_package_cell_callables():
    # REP010 checks only code reachable from the cell callables it can
    # resolve: a bare function name or a local bound to an instance.  A
    # run_cells call that builds its experiment inline hides the cell
    # from the rule while the gate above still reads 0 findings.
    modules = [load_module(path) for path in iter_python_files([str(SRC_REPRO)])]
    entries = _CallGraph(ProjectInfo(modules=modules)).entry_points()
    assert ("repro.faults.chaos", "chaos_cell") in entries
    assert ("repro.analysis.region", "_RegionProbe.__call__") in entries


def test_all_twelve_rules_registered():
    assert [cls.rule_id for cls in registered_rules()] == ALL_RULE_IDS


# ---------------------------------------------------------------------------
# Per-rule fixtures: exact rule ids and line numbers.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_fires_on_violation_fixture(rule_id):
    stem = rule_id.lower()
    module = (
        f"repro.cluster.{stem}_violation"
        if rule_id == "REP004"
        else f"repro.fixtures.{stem}_violation"
    )
    source, findings = lint_fixture(f"{stem}_violation.py", rule_id, module)
    assert findings, f"{rule_id} produced no findings on its fixture"
    assert sorted(f.line for f in findings) == violation_lines(source)
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_quiet_on_clean_fixture(rule_id):
    stem = rule_id.lower()
    module = (
        f"repro.cluster.{stem}_clean"
        if rule_id == "REP004"
        else f"repro.fixtures.{stem}_clean"
    )
    _, findings = lint_fixture(f"{stem}_clean.py", rule_id, module)
    assert findings == [], "\n" + render_text(findings)


def test_finding_format_is_path_line_col_rule():
    _, findings = lint_fixture(
        "rep002_violation.py", "REP002", "repro.fixtures.rep002_violation"
    )
    text = findings[0].format()
    assert "rep002_violation.py:5:" in text
    assert " REP002 " in text


# ---------------------------------------------------------------------------
# Suppression pragmas.
# ---------------------------------------------------------------------------


def test_suppression_pragmas_silence_named_and_star():
    source, findings = lint_fixture(
        "suppression.py", "REP001", "repro.fixtures.suppression"
    )
    # Only the unsuppressed call survives; ignore[REP001], the
    # comma-separated form, and ignore[*] all silence their lines.
    assert sorted(f.line for f in findings) == violation_lines(source)


def test_suppression_of_other_rule_does_not_silence():
    findings = lint_source(
        "import random  # repro: ignore[REP003]\n",
        module="repro.fixtures.snippet",
        rules=["REP001"],
    )
    assert [f.rule for f in findings] == ["REP001"]


# ---------------------------------------------------------------------------
# Layering model.
# ---------------------------------------------------------------------------


def test_declared_layering_is_acyclic():
    order = validate_layering()
    assert set(order) == set(ALLOWED_IMPORTS)
    seen = set()
    for node in order:
        assert ALLOWED_IMPORTS[node] <= seen
        seen.add(node)


def test_node_for_maps_kernel_and_catalog_splits():
    assert node_for("repro.sim.engine") == "sim.kernel"
    assert node_for("repro.sim.clock") == "sim.kernel"
    assert node_for("repro.sim.simulation") == "sim"
    assert node_for("repro.workloads.catalog") == "workloads.catalog"
    assert node_for("repro.workloads.generator") == "workloads"
    assert node_for("repro._validation") == "validation"
    assert node_for("repro.cli") == "root"
    assert node_for("repro") == "root"


def test_validate_layering_raises_on_cycle(monkeypatch):
    import repro.devtools.layering as layering

    cyclic = {"a": frozenset({"b"}), "b": frozenset({"a"})}
    monkeypatch.setattr(layering, "ALLOWED_IMPORTS", cyclic)
    with pytest.raises(ValueError, match="layering cycle"):
        layering.validate_layering()


def test_infer_module_name_roots_at_repro():
    module, is_package = infer_module_name("src/repro/sim/engine.py")
    assert (module, is_package) == ("repro.sim.engine", False)
    module, is_package = infer_module_name("src/repro/power/__init__.py")
    assert (module, is_package) == ("repro.power", True)
    module, is_package = infer_module_name("tests/devtools_fixtures/x.py")
    assert (module, is_package) == (None, False)


# ---------------------------------------------------------------------------
# Engine edges.
# ---------------------------------------------------------------------------


def test_syntax_error_becomes_rep000_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n", encoding="utf-8")
    findings = lint_paths([str(bad)])
    assert [f.rule for f in findings] == ["REP000"]


def test_build_rules_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown rule"):
        build_rules(only=["REP999"])


def test_render_json_round_trips():
    _, findings = lint_fixture(
        "rep005_violation.py", "REP005", "repro.fixtures.rep005_violation"
    )
    payload = json.loads(render_json(findings))
    assert payload["count"] == len(findings) == 3
    assert payload["findings"][0]["rule"] == "REP005"
    assert {"path", "line", "col", "rule", "message"} <= set(
        payload["findings"][0]
    )


# ---------------------------------------------------------------------------
# CLI: exit codes and output formats.
# ---------------------------------------------------------------------------


def test_cli_exits_zero_on_src_repro(capsys):
    assert lint_main([str(SRC_REPRO)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_exits_nonzero_on_seeded_violation(capsys):
    rc = lint_main([str(FIXTURES / "rep001_violation.py"), "--rules", "REP001"])
    assert rc == 1
    assert "REP001" in capsys.readouterr().out


def test_cli_json_format(capsys):
    rc = lint_main(
        [
            str(FIXTURES / "rep002_violation.py"),
            "--rules",
            "REP002",
            "--format",
            "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "REP001" in proc.stdout


# ---------------------------------------------------------------------------
# Unused imports in the trees CI's `ruff check` step covers.
# ---------------------------------------------------------------------------

RUFF_PATHS = ("src", "tests", "benchmarks", "scripts")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scope_imports(scope):
    """Import statements that bind names in *scope*, not in a nested def."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def names_read(scope) -> set:
    """Every name *scope* mentions, string annotations included."""
    names = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = (getattr(node, "annotation", None), getattr(node, "returns", None))
        for annotation in filter(None, annotations):
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    try:
                        parsed = ast.parse(text.value, mode="eval")
                    except SyntaxError:
                        continue
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list:
    """``path:line: name`` for each import nothing in its scope reads.

    ``__all__`` entries, ``x as x`` re-exports and ``# noqa`` lines count
    as used, as they do for ruff.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in [
            getattr(target, "id", None) for target in node.targets
        ]:
            exported = {getattr(elt, "value", None) for elt in node.value.elts}
    findings = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        used = names_read(scope) | (exported if scope is tree else set())
        for stmt in scope_imports(scope):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                noqa = "# noqa" in lines[alias.lineno - 1] + lines[stmt.lineno - 1]
                if name not in used and alias.asname != alias.name and not noqa:
                    where = path.relative_to(REPO_ROOT)
                    findings.append(f"{where}:{alias.lineno}: {name}")
    return findings


def test_no_unused_imports():
    findings = [
        finding
        for root in RUFF_PATHS
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        for finding in unused_imports(path)
    ]
    assert findings == [], "\n" + "\n".join(findings)


# ---------------------------------------------------------------------------
# Options nobody sets.
# ---------------------------------------------------------------------------

#: Trees whose calls count as setting an option.
CALLER_PATHS = ("src", "tests", "benchmarks", "examples", "perfbench", "scripts")

#: Defaulted parameters that callers pass positionally, or that belong to
#: an entry point, as ``module:qualname(parameter)``.
OPTION_ALLOWLIST = {
    "repro.cli:main(argv)",
    "repro.devtools.lint:main(argv)",
    "repro.devtools.lint:run(parser)",
    "repro.obs.counters:Counters.inc(amount)",
    "repro.power.manager:highest_fitting_level(bottom)",
}


def public_functions(tree):
    """``(qualname, def)`` for every public function, method and
    ``__init__`` outside private classes."""
    stack = [(tree, "")]
    while stack:
        scope, prefix = stack.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                stack.append((node, f"{prefix}{node.name}."))
            elif isinstance(node, FUNCTIONS) and (
                node.name == "__init__" or not node.name.startswith("_")
            ):
                yield prefix + node.name, node


def defaulted_parameters(function) -> list:
    """Names of *function*'s parameters that carry a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults) :]]
    names += [
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return names


def test_every_option_is_passed_somewhere():
    """Every defaulted parameter of a public function or method in
    ``src/repro`` is passed by keyword somewhere in the repository.

    The scan is name-based: a keyword of the same name passed to any
    call counts, so it catches only options that nobody passes at all.
    A parameter callers pass positionally, or an entry point's, goes on
    ``OPTION_ALLOWLIST``.
    """
    passed = set()
    for root in CALLER_PATHS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    passed |= {k.arg for k in node.keywords if k.arg}
    unset = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        module, _ = infer_module_name(str(path))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, function in public_functions(tree):
            for name in defaulted_parameters(function):
                option = f"{module}:{qualname}({name})"
                if name not in passed and option not in OPTION_ALLOWLIST:
                    unset.append(option)
    assert unset == [], "\n" + "\n".join(unset)
