"""Structural validation of .github/workflows/ci.yml.

The pinned dev container has no ``actionlint``, so this suite is the
schema check keeping the workflow honest: it must parse as YAML, define
the six jobs the repo's CI contract names (lint, test matrix, golden
equivalence, topology equivalence, paper benches, perfbench smoke), run
the *same* gate script a developer runs locally, cover the supported
Python matrix with pip caching keyed on both packaging manifests, and
cancel superseded runs of the same ref.
"""

from pathlib import Path

import pytest
import yaml

_WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(_WORKFLOW.read_text())


def _steps(job):
    return job["steps"]


def _run_lines(job):
    return "\n".join(step.get("run", "") for step in _steps(job))


def test_workflow_parses_and_triggers_on_push_and_pr(workflow):
    assert workflow["name"] == "ci"
    # YAML 1.1 parses the bare key `on` as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_workflow_cancels_superseded_runs(workflow):
    # A new push to the same PR/branch must cancel the stale run.
    concurrency = workflow["concurrency"]
    assert "github.ref" in concurrency["group"]
    assert concurrency["cancel-in-progress"] is True


def test_workflow_defines_the_six_contract_jobs(workflow):
    assert set(workflow["jobs"]) == {
        "lint",
        "test",
        "equivalence",
        "topology-equivalence",
        "paper-benches",
        "perfbench-smoke",
    }


def test_every_job_checks_out_and_sets_up_python_with_pip_cache(workflow):
    for name, job in workflow["jobs"].items():
        uses = [step.get("uses", "") for step in _steps(job)]
        assert any(u.startswith("actions/checkout@") for u in uses), name
        setup = next(
            step
            for step in _steps(job)
            if step.get("uses", "").startswith("actions/setup-python@")
        )
        assert setup["with"]["cache"] == "pip", name
        # Cache keys must track both packaging manifests: an edit to
        # either pyproject.toml or setup.py invalidates the pip cache.
        dependency_path = setup["with"]["cache-dependency-path"]
        assert "pyproject.toml" in dependency_path, name
        assert "setup.py" in dependency_path, name


def test_lint_job_runs_all_three_linters(workflow):
    runs = _run_lines(workflow["jobs"]["lint"])
    assert "python -m repro lint src/repro" in runs
    assert "--format sarif" in runs
    assert "ruff check" in runs
    assert "mypy" in runs


def test_lint_job_uploads_sarif_to_code_scanning(workflow):
    lint = workflow["jobs"]["lint"]
    upload = next(
        step
        for step in _steps(lint)
        if step.get("uses", "").startswith("github/codeql-action/upload-sarif@")
    )
    # the SARIF must reach code scanning even when the lint step fails
    assert upload["if"] == "always()"
    assert upload["with"]["sarif_file"] == "lint.sarif"
    assert lint["permissions"]["security-events"] == "write"


def test_test_job_matrix_covers_supported_pythons(workflow):
    test = workflow["jobs"]["test"]
    versions = test["strategy"]["matrix"]["python-version"]
    assert versions == ["3.10", "3.11", "3.12", "3.13"]
    setup = next(
        step
        for step in _steps(test)
        if step.get("uses", "").startswith("actions/setup-python@")
    )
    assert "matrix.python-version" in setup["with"]["python-version"]


def test_test_job_runs_the_local_gate_script(workflow):
    # The hosted gate and scripts/check.sh must stay one recipe.
    assert "scripts/check.sh --ci" in _run_lines(workflow["jobs"]["test"])


def test_test_job_uploads_junit_reports(workflow):
    uploads = [
        step
        for step in _steps(workflow["jobs"]["test"])
        if step.get("uses", "").startswith("actions/upload-artifact@")
    ]
    assert uploads and uploads[0]["with"]["path"] == "test-reports/"


def test_equivalence_job_runs_suite_and_two_worker_cross_check(workflow):
    runs = _run_lines(workflow["jobs"]["equivalence"])
    assert "tests/test_batched_equivalence.py" in runs
    assert "tests/test_property_equivalence.py" in runs
    # The columnar metrics ledger against its record-list reference.
    assert "tests/test_collector_columns.py" in runs
    # numpy's named distributions against the request path's direct
    # call forms: a numpy release that breaks the identity fails here.
    assert "tests/test_rng_forms.py" in runs
    # The request path's state against the per-request work it
    # replaced: server pools against the health scans, and the
    # memoised watts against their uncached reference.
    assert "tests/test_server_pools.py" in runs
    assert "tests/test_fabric_fast_path.py" not in runs
    assert "tests/test_watts_memo.py" in runs
    # The capping controller against copies of its old search loops.
    assert "tests/test_capping_controller.py" in runs
    # Table 2 as algebra: a degenerate scheme equals a simpler one.
    assert "tests/test_scheme_pairs.py" in runs
    # The detector's arithmetic bit for bit against its verbatim
    # reference, and the event core's dispatch order and cancellation
    # against a sorted reference.
    assert "tests/test_detect_bitexact.py" in runs
    assert "tests/test_event_order.py" in runs
    # Cross-engine identity must exercise the process pool too.
    assert "REPRO_BENCH_ENGINE=scalar" in runs
    assert "REPRO_BENCH_ENGINE=batched" in runs
    assert runs.count("--workers 2") == 2
    assert "diff sweep_scalar.txt sweep_batched.txt" in runs


def test_topology_equivalence_job_runs_suite_and_tree_cross_check(workflow):
    runs = _run_lines(workflow["jobs"]["topology-equivalence"])
    # The flat-identity + headline-scenario suite.
    assert "tests/test_topology_equivalence.py" in runs
    # The tree preset must cross-check both engines over worker
    # processes, mirroring the flat equivalence job's sweep contract.
    assert "REPRO_BENCH_ENGINE=scalar" in runs
    assert "REPRO_BENCH_ENGINE=batched" in runs
    assert runs.count("--topology tree-small") == 2
    assert runs.count("--workers 2") == 2
    assert "diff sweep_tree_scalar.txt sweep_tree_batched.txt" in runs


def test_paper_benches_job_runs_the_figure_and_table_benches(workflow):
    job = workflow["jobs"]["paper-benches"]
    runs = _run_lines(job)
    # The benches need pytest-benchmark and scipy from the dev extras.
    assert '-e ".[dev]"' in runs
    assert "python -m pytest benchmarks -q --benchmark-disable" in runs


def test_perfbench_smoke_job_runs_one_round_and_fails_on_failed_runs(workflow):
    runs = _run_lines(workflow["jobs"]["perfbench-smoke"])
    assert "python3 perfbench/run.py --runs 1 --out perfbench-smoke.json" in runs
    # run.py exits 0 even when runs fail, so the job must read the
    # payload itself: any failed run fails the job and prints its errors.
    assert 'summary["failed"] > 0' in runs
    assert 'summary["errors"]' in runs
    assert "sys.exit(1 if failed else 0)" in runs


def test_perfbench_smoke_job_uploads_payload(workflow):
    uploads = [
        step
        for step in _steps(workflow["jobs"]["perfbench-smoke"])
        if step.get("uses", "").startswith("actions/upload-artifact@")
    ]
    assert uploads and uploads[0]["with"]["path"] == "perfbench-smoke.json"
    # The payload must be captured even when a run fails.
    assert uploads[0]["if"] == "always()"


def test_ci_commands_reference_only_existing_paths(workflow):
    root = Path(__file__).parent.parent
    assert (root / "scripts" / "check.sh").is_file()
    assert (root / "perfbench" / "run.py").is_file()
    for job in workflow["jobs"].values():
        for line in _run_lines(job).splitlines():
            if "tests/test_" in line:
                for token in line.split():
                    if token.startswith("tests/test_"):
                        assert (root / token).is_file(), token


def test_check_script_runs_the_flat_and_the_tree_chaos_smoke():
    # The tree smoke runs the fabric's crash path in the gate.
    script = (Path(__file__).parent.parent / "scripts" / "check.sh").read_text()
    assert "python -m repro chaos --smoke --workers 2" in script
    assert "python -m repro chaos --smoke --topology tree-small --workers 2" in script


def test_check_script_compares_the_serial_and_the_two_worker_sweep():
    # The gate checks workers 1 == N byte for byte through the runner's
    # process pool, not just that a pooled sweep exits 0.
    script = (Path(__file__).parent.parent / "scripts" / "check.sh").read_text()
    sweep = "python -m repro sweep --types colla-filt --rates 60 150 --window 10"
    assert f'{sweep} --workers 1 > "$SWEEP_DIR/w1.txt"' in script
    assert f'{sweep} --workers 2 > "$SWEEP_DIR/w2.txt"' in script
    assert 'cmp "$SWEEP_DIR/w1.txt" "$SWEEP_DIR/w2.txt"' in script
