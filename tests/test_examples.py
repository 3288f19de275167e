"""Smoke tests: every example script runs end-to-end.

The heavier examples are shrunk via their module constants / argv so
the suite stays fast; the assertions check each script's headline
output exists, not its exact numbers.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesPresent:
    def test_at_least_five_examples(self):
        scripts = sorted(p.stem for p in EXAMPLES.glob("*.py"))
        assert len(scripts) >= 5
        assert "quickstart" in scripts

    @pytest.mark.parametrize(
        "name",
        [p.stem for p in sorted(EXAMPLES.glob("*.py"))],
    )
    def test_example_has_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None))


class TestExamplesRun:
    def test_quickstart_runs(self, capsys):
        module = load_example("quickstart")
        module.DURATION = 90.0
        module.ATTACK_START = 30.0
        module.main()
        out = capsys.readouterr().out
        assert "Anti-DOPE" in out
        assert "improvement" in out

    def test_region_example_runs(self, capsys, monkeypatch):
        module = load_example("characterize_dope_region")
        monkeypatch.setattr(
            sys, "argv", ["x", "--budget", "low", "--rates", "50", "300"]
        )
        module.main()
        out = capsys.readouterr().out
        assert "DOPE region map" in out

    def test_defend_example_runs(self, capsys):
        module = load_example("defend_with_anti_dope")
        module.DURATION = 90.0
        module.main()
        out = capsys.readouterr().out
        assert "suspect list" in out
        assert "normal users" in out

    def test_adaptive_attacker_runs(self, capsys):
        module = load_example("adaptive_attacker")
        module.DURATION = 120.0
        module.main()
        out = capsys.readouterr().out
        assert "probe-and-adjust" in out
        assert "converged" in out

    def test_elastic_infrastructure_runs(self, capsys):
        module = load_example("elastic_infrastructure")
        module.main()
        out = capsys.readouterr().out
        assert "auto-scaled" in out
