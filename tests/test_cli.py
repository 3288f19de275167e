"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.faults import validate_chaos_payload


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_region_defaults(self):
        args = build_parser().parse_args(["region"])
        assert args.command == "region"
        assert args.budget == "low"
        assert args.agents == 20

    def test_compare_scheme_selection(self):
        args = build_parser().parse_args(
            ["compare", "--schemes", "capping", "anti-dope"]
        )
        assert args.schemes == ["capping", "anti-dope"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--schemes", "nope"])

    def test_budget_choices(self):
        args = build_parser().parse_args(["attack", "--budget", "medium"])
        assert args.budget == "medium"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "--budget", "ultra"])


class TestCommands:
    def test_region_command_runs(self, capsys):
        code = main(
            ["region", "--rates", "50", "300", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "DOPE region" in out
        assert "colla-filt" in out
        assert "dope" in out  # the region is non-empty at low budget

    def test_compare_command_runs(self, capsys):
        code = main(
            [
                "compare",
                "--schemes",
                "capping",
                "anti-dope",
                "--duration",
                "90",
                "--attack-rate",
                "200",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "capping" in out and "anti-dope" in out
        assert "mean ms" in out

    def test_attack_command_runs(self, capsys):
        code = main(["attack", "--duration", "120", "--budget", "medium"])
        out = capsys.readouterr().out
        assert code == 0
        assert "probe-and-adjust" in out
        assert "converged:" in out

    def test_deterministic_per_seed(self, capsys):
        main(["compare", "--schemes", "capping", "--duration", "60", "--seed", "3"])
        first = capsys.readouterr().out
        main(["compare", "--schemes", "capping", "--duration", "60", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


SWEEP_ARGS = [
    "sweep",
    "--types",
    "colla-filt",
    "k-means",
    "--rates",
    "60",
    "250",
    "--window",
    "20",
    "--budget",
    "medium",
    "--seed",
    "5",
]


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.workers == 1
        assert args.cache_dir is None
        assert args.types is None

    def test_sweep_command_runs(self, capsys):
        code = main(SWEEP_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "DOPE region sweep" in out
        assert "colla-filt" in out and "k-means" in out
        assert "swept cells" in out

    def test_sweep_output_identical_across_worker_counts(self, capsys):
        main(SWEEP_ARGS)
        serial = capsys.readouterr().out
        main(SWEEP_ARGS + ["--workers", "2"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_cache_hits_on_second_run(self, capsys, tmp_path):
        cached = SWEEP_ARGS + ["--cache-dir", str(tmp_path / "cache")]
        main(cached)
        first = capsys.readouterr().out
        assert "4 miss(es)" in first
        main(cached)
        second = capsys.readouterr().out
        assert "4 hit(s)" in second
        # Everything above the cache-stat line is byte-identical.
        assert first.rsplit("cache:", 1)[0] == second.rsplit("cache:", 1)[0]


class TestChaosCommand:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert args.workers == 1
        assert not args.full
        assert args.out is None

    def test_smoke_and_full_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--smoke", "--full"])

    @pytest.mark.parametrize(
        "flag", [["--prediction-horizon", "120"], ["--detect-placement", "row"]]
    )
    def test_chaos_rejects_scheme_options_it_would_ignore(self, flag, capsys):
        # The chaos matrix never reads these knobs, so accepting them
        # would run with the defaults while looking configured.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["chaos", "--schemes", "prediction"] + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_chaos_smoke_writes_valid_payload(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        code = main(["chaos", "--smoke", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "6 cells" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_chaos_payload(payload) == []
        assert payload["schema"] == "repro-chaos/1"
        assert sorted(c["scheme"] for c in payload["cells"]) == [
            "anti-dope",
            "capping",
            "online-detect",
            "prediction",
            "shaving",
            "token",
        ]
        for cell in payload["cells"]:
            assert cell["dropped"] == (
                cell["dropped_policy"] + cell["dropped_fault"]
            )


ALL_SCHEMES = [
    "anti-dope",
    "capping",
    "online-detect",
    "prediction",
    "shaving",
    "token",
]


class TestSchemeSelectorRoundTrip:
    """--scheme/--schemes must accept exactly the six registry names on
    every command that sweeps or compares schemes."""

    def test_region_accepts_every_scheme_name(self):
        for name in ALL_SCHEMES:
            args = build_parser().parse_args(["region", "--scheme", name])
            assert args.scheme == name

    def test_sweep_accepts_all_names_at_once(self):
        args = build_parser().parse_args(["sweep", "--schemes"] + ALL_SCHEMES)
        assert args.schemes == ALL_SCHEMES

    def test_compare_accepts_all_names_at_once(self):
        args = build_parser().parse_args(
            ["compare", "--schemes"] + ALL_SCHEMES
        )
        assert args.schemes == ALL_SCHEMES

    def test_scheme_and_schemes_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["region", "--scheme", "prediction", "--schemes", "capping"]
            )

    def test_unknown_scheme_rejected_everywhere(self):
        for command in ("region", "sweep"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--scheme", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--schemes", "nope"])

    def test_prediction_horizon_flag_parses(self):
        args = build_parser().parse_args(
            ["region", "--prediction-horizon", "120"]
        )
        assert args.prediction_horizon == 120.0

    def test_region_runs_under_prediction(self, capsys):
        code = main(
            [
                "region",
                "--scheme",
                "prediction",
                "--rates",
                "50",
                "--seed",
                "1",
                "--prediction-horizon",
                "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "prediction" in out
