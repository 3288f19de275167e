"""Tests for the devtools v2 analysis suite.

Covers the project-scope engine (crash isolation, cross-module
analysis), the REP009 dimension algebra, SARIF rendering, the ``repro lint`` CLI surface, and the runtime contracts
the new rules enforce (obs name registry, outcome partition).
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.devtools import (
    Finding,
    ProjectInfo,
    ProjectRule,
    lint_paths,
    lint_project,
    lint_source,
    load_module,
)
from repro.devtools.dimensions import (
    DIMENSIONLESS,
    ENERGY,
    POWER,
    RATE,
    TIME,
    UNKNOWN,
    combine_div,
    combine_mul,
    dimension_of_name,
)
from repro.devtools.lint import main as lint_main
from repro.devtools.sarif import render_sarif
from repro.obs.contract import (
    COUNTER_NAMES,
    TIMER_NAMES,
    is_declared_counter,
    is_declared_timer,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "devtools_fixtures"


# ---------------------------------------------------------------------------
# Engine v2: project scope and crash isolation.
# ---------------------------------------------------------------------------


def test_project_info_indexes_by_name_and_path(tmp_path):
    file_a = tmp_path / "a.py"
    file_a.write_text("x = 1\n", encoding="utf-8")
    module = load_module(str(file_a))
    project = ProjectInfo(modules=[module])
    assert project.by_path[str(file_a)] is module
    # a path outside src/repro has no dotted module identity
    assert module.module is None and project.by_name == {}


def test_empty_module_lints_clean():
    assert lint_source("", module="repro.fixtures.empty") == []


def test_crashing_rule_does_not_mask_other_rules(monkeypatch):
    import repro.devtools.engine as engine

    class CrashingModuleRule(engine.Rule):
        rule_id = "REP901"
        summary = "crashes at call time"

        def check(self, module):
            raise RuntimeError("boom")

    class CrashingProjectRule(ProjectRule):
        rule_id = "REP902"
        summary = "yields one finding, then crashes"

        def check_project(self, project):
            yield Finding(
                path=project.modules[0].path,
                line=1,
                col=0,
                rule=self.rule_id,
                message="partial finding before the crash",
            )
            raise ValueError("mid-iteration boom")

    registry = dict(engine._REGISTRY)
    registry["REP901"] = CrashingModuleRule
    registry["REP902"] = CrashingProjectRule
    monkeypatch.setattr(engine, "_REGISTRY", registry)

    findings = lint_source(
        "import random\n",
        module="repro.fixtures.crashy",
        rules=["REP001", "REP901", "REP902"],
    )
    by_rule = {}
    for finding in findings:
        by_rule.setdefault(finding.rule, []).append(finding)

    # the healthy rule still reports its finding
    assert len(by_rule["REP001"]) == 1
    # the call-time crash became a synthetic finding on the rule's id
    assert "rule crashed" in by_rule["REP901"][0].message
    # the mid-iteration crash kept its partial finding AND the marker
    messages = [f.message for f in by_rule["REP902"]]
    assert "partial finding before the crash" in messages
    assert any("rule crashed" in message for message in messages)


def test_project_rule_sees_across_modules(tmp_path):
    """REP010 attributes a race in module B to a cell defined in module A."""
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "state.py").write_text(
        "_BUCKET = []\n"
        "\n"
        "\n"
        "def remember(value):\n"
        "    _BUCKET.append(value)\n",
        encoding="utf-8",
    )
    (package / "cells.py").write_text(
        "from repro.pkg.state import remember\n"
        "\n"
        "\n"
        "def probe_cell(spec):\n"
        "    remember(spec)\n"
        "    return spec\n",
        encoding="utf-8",
    )
    findings = lint_paths([str(tmp_path / "src" / "repro")], rules=["REP010"])
    assert len(findings) == 1
    assert findings[0].path.endswith("state.py")
    assert "_BUCKET" in findings[0].message
    assert "probe_cell" in findings[0].message


# ---------------------------------------------------------------------------
# REP009 dimension algebra.
# ---------------------------------------------------------------------------


def test_dimension_algebra_products_and_quotients():
    assert combine_mul(POWER, TIME) == ENERGY
    assert combine_mul(TIME, POWER) == ENERGY  # symmetric
    assert combine_div(ENERGY, TIME) == POWER
    assert combine_div(ENERGY, POWER) == TIME
    assert combine_div(DIMENSIONLESS, TIME) == RATE
    assert combine_div(POWER, POWER) == DIMENSIONLESS
    assert combine_mul(DIMENSIONLESS, POWER) == POWER
    # unlisted combinations abstain rather than guess
    assert combine_mul(POWER, POWER) is UNKNOWN
    assert combine_div(TIME, POWER) is UNKNOWN
    assert combine_mul(UNKNOWN, POWER) is UNKNOWN


def test_dimension_of_name_longest_suffix_wins():
    assert dimension_of_name("peak_power_w") == POWER
    assert dimension_of_name("arrival_rate_rps") == RATE  # _rps beats _s
    assert dimension_of_name("headroom_fraction") == DIMENSIONLESS
    assert dimension_of_name("count") is UNKNOWN


def test_rep009_legal_product_chain_stays_quiet():
    source = (
        "def energy(power_w, dt_s):\n"
        "    total_j = power_w * dt_s\n"
        "    back_w = total_j / dt_s\n"
        "    return total_j, back_w\n"
    )
    assert lint_source(source, module="repro.fixtures.chain", rules=["REP009"]) == []


def test_rep009_catches_seeded_power_plus_energy():
    source = (
        "def broken(power_w, energy_j):\n"
        "    return power_w + energy_j\n"
    )
    findings = lint_source(source, module="repro.fixtures.bad", rules=["REP009"])
    assert len(findings) == 1
    assert "mixed dimensions" in findings[0].message


# ---------------------------------------------------------------------------
# SARIF rendering.
# ---------------------------------------------------------------------------


def _finding(path="src/repro/x.py", line=3, rule="REP009", message="m"):
    return Finding(path=path, line=line, col=0, rule=rule, message=message)



def test_sarif_document_shape_and_rule_metadata():
    payload = json.loads(render_sarif([_finding()]))
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-devtools"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert "REP009" in rule_ids and "REP012" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "REP009"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/x.py"
    assert location["region"]["startLine"] == 3
    assert location["region"]["startColumn"] == 1  # SARIF is 1-based


def test_sarif_output_is_deterministic():
    findings = [_finding(), _finding(rule="REP011", message="other")]
    assert render_sarif(findings) == render_sarif(findings)


# ---------------------------------------------------------------------------
# CLI: formats, the `repro lint` subcommand and alias.
# ---------------------------------------------------------------------------


def test_cli_sarif_format_on_clean_tree(capsys):
    assert lint_main([str(SRC_REPRO), "--format", "sarif"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"] == []


def test_cli_sarif_exit_one_on_violation(capsys):
    rc = lint_main(
        [
            str(FIXTURES / "rep009_violation.py"),
            "--rules",
            "REP009",
            "--format",
            "sarif",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"][0]["results"]


def test_cli_out_flag_writes_report_file(tmp_path, capsys):
    out_file = tmp_path / "report.sarif"
    rc = lint_main(
        [str(SRC_REPRO), "--format", "sarif", "--out", str(out_file)]
    )
    assert rc == 0
    capsys.readouterr()  # nothing useful on stdout
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["version"] == "2.1.0"


def test_repro_lint_subcommand_matches_alias(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(SRC_REPRO)]) == 0
    sub_out = capsys.readouterr().out
    assert lint_main([str(SRC_REPRO)]) == 0
    assert capsys.readouterr().out == sub_out


def test_module_alias_entry_point_still_works():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "REP012" in proc.stdout


# ---------------------------------------------------------------------------
# Runtime contracts the rules enforce.
# ---------------------------------------------------------------------------


def test_obs_contract_declares_prefixed_families():
    assert is_declared_counter("runner.cache_hits")
    assert is_declared_counter("faults.injected.server_crash")
    assert is_declared_counter("network.nlb_dropped.dropped_token")
    assert not is_declared_counter("runner.cache_hitz")
    assert is_declared_timer("runner.cell")
    assert not is_declared_timer("runner.cel")
    # registries are disjoint namespaces
    assert not COUNTER_NAMES & TIMER_NAMES


def test_outcome_partition_is_total_and_disjoint():
    from repro.network.request import (
        FAULT_OUTCOMES,
        POLICY_OUTCOMES,
        RequestOutcome,
    )

    members = set(RequestOutcome)
    assert FAULT_OUTCOMES | POLICY_OUTCOMES == members - {
        RequestOutcome.COMPLETED
    }
    assert not FAULT_OUTCOMES & POLICY_OUTCOMES


def test_policy_outcomes_exported_from_network_package():
    from repro.network import POLICY_OUTCOMES as exported
    from repro.network.request import POLICY_OUTCOMES

    assert exported is POLICY_OUTCOMES
