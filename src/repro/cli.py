"""Command-line interface: ``python -m repro <command>``.

Six operator-facing commands wrap the library's main workflows:

``region``
    Map the DOPE attack region of a configuration (paper Fig. 11).
``compare``
    Run the Table-2 scheme comparison under a DOPE flood at one
    provisioning level (paper Figs. 16/17 for one column).
``attack``
    Launch the adaptive DOPE attacker against a victim configuration
    and print its convergence trace (paper Fig. 12).
``sweep``
    The Fig. 11 region grid through the experiment runner: probe cells
    fan out over ``--workers`` processes and an optional ``--cache-dir``
    makes repeat sweeps near-instant.
``chaos``
    The fault-injection sweep (``repro-chaos/1`` JSON): the Table-2
    scheme matrix re-run under a DOPE flood combined with server
    crashes, meter faults and battery degradation, with drops
    attributed to policy vs fault causes.
``lint``
    The domain-aware static analysis suite (REP001–REP012): unit
    dataflow, determinism races, layering and the obs/faults contract
    registries, with text/JSON/SARIF output.

All commands are deterministic per ``--seed``; ``sweep`` and ``chaos``
output is additionally byte-identical for any worker count.  The
simulator's benchmark is ``perfbench/run.py`` (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .analysis import DopeRegionAnalyzer, format_table
from .cluster import FLAT_TOPOLOGY, topology_names
from .detect import PLACEMENTS, SCHEME_NAMES, make_scheme
from .devtools import lint as devtools_lint
from .faults import run_chaos
from .power import BudgetLevel
from .runner import ResultCache
from .sim import DataCenterSimulation, SimulationConfig
from .workloads import ALL_TYPES, RequestType, TrafficClass, dope_mix, get_type

__all__ = [
    "build_parser",
    "cmd_region",
    "cmd_compare",
    "cmd_attack",
    "cmd_sweep",
    "cmd_chaos",
    "cmd_lint",
    "main",
]

def _budget(name: str) -> BudgetLevel:
    return BudgetLevel[name.upper()]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--budget",
        choices=[level.name.lower() for level in BudgetLevel],
        default="low",
        help="provisioning level (default: low)",
    )
    parser.add_argument(
        "--servers", type=int, default=4, help="rack size (default: 4)"
    )
    parser.add_argument(
        "--topology",
        choices=list(topology_names()),
        default=FLAT_TOPOLOGY,
        help=(
            "power/fabric topology: 'flat' (default, byte-identical to "
            "the pre-topology simulator) or a tree preset; tree presets "
            "fix the fleet size, so --servers applies to 'flat' only"
        ),
    )


def _add_scheme_options(parser: argparse.ArgumentParser) -> None:
    """Scheme tuning knobs for the commands that build their own config.

    ``chaos`` fixes its scenario matrix and never reads these, so it
    does not register them: passing one there is a usage error rather
    than a silently ignored setting.
    """
    parser.add_argument(
        "--detect-placement",
        choices=list(PLACEMENTS),
        default="dc",
        help=(
            "quarantine-pool placement for the online-detect scheme: "
            "'dc' (default) carves one pool per data center, 'row' "
            "isolates one server per power-tree row"
        ),
    )
    parser.add_argument(
        "--prediction-horizon",
        type=float,
        default=60.0,
        help=(
            "history horizon in seconds for the prediction scheme's "
            "P99 power estimate (default: 60)"
        ),
    )


def _add_scheme_selector(parser: argparse.ArgumentParser) -> None:
    """The region/sweep scheme selector: one sweep per selected scheme.

    ``--scheme X`` is shorthand for ``--schemes X``; with neither, the
    sweep runs unmanaged (the classic Fig. 11 raw-vulnerability map).
    """
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--scheme",
        choices=list(SCHEME_NAMES),
        default=None,
        help="run the sweep under one defense scheme (default: unmanaged)",
    )
    group.add_argument(
        "--schemes",
        nargs="+",
        choices=list(SCHEME_NAMES),
        default=None,
        metavar="SCHEME",
        help="sweep once per scheme and compare DOPE-region sizes",
    )


def _selected_schemes(args: argparse.Namespace) -> List[Optional[str]]:
    """Scheme list a region/sweep command should iterate over.

    ``[None]`` means one unmanaged sweep (the historical behaviour).
    """
    if getattr(args, "scheme", None):
        return [args.scheme]
    if getattr(args, "schemes", None):
        return list(args.schemes)
    return [None]


def _config(args: argparse.Namespace, **overrides: object) -> SimulationConfig:
    """Build the configuration the common flags describe.

    Tree presets carry their own fleet size, so ``--servers`` feeds
    ``num_servers`` only for the flat topology.
    """
    kwargs: dict = dict(
        budget_level=_budget(args.budget),
        seed=args.seed,
        detect_placement=args.detect_placement,
        prediction_horizon_s=args.prediction_horizon,
    )
    kwargs.update(overrides)
    if args.topology == FLAT_TOPOLOGY:
        kwargs.setdefault("num_servers", args.servers)
    return SimulationConfig.for_topology(args.topology, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DOPE / Anti-DOPE simulation toolkit (ICPP 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="map the DOPE attack region (Fig 11)")
    _add_common(region)
    _add_scheme_options(region)
    region.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[50.0, 150.0, 300.0, 600.0],
        help="attack rates to sweep",
    )
    region.add_argument("--agents", type=int, default=20)
    _add_scheme_selector(region)

    compare = sub.add_parser(
        "compare", help="compare Table-2 schemes under a DOPE flood"
    )
    _add_common(compare)
    _add_scheme_options(compare)
    compare.add_argument("--attack-rate", type=float, default=220.0)
    compare.add_argument("--duration", type=float, default=240.0)
    compare.add_argument(
        "--schemes",
        nargs="+",
        choices=list(SCHEME_NAMES),
        default=list(SCHEME_NAMES),
    )

    attack = sub.add_parser(
        "attack", help="run the adaptive DOPE attacker (Fig 12)"
    )
    _add_common(attack)
    _add_scheme_options(attack)
    attack.add_argument("--agents", type=int, default=40)
    attack.add_argument("--max-rate", type=float, default=1200.0)
    attack.add_argument("--duration", type=float, default=400.0)
    attack.add_argument(
        "--scheme",
        choices=list(SCHEME_NAMES),
        default="capping",
        help="victim's defense scheme (default: capping)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="region grid through the parallel/cached experiment runner",
    )
    _add_common(sweep)
    _add_scheme_options(sweep)
    sweep.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[50.0, 150.0, 300.0, 600.0],
        help="attack rates to sweep",
    )
    sweep.add_argument("--agents", type=int, default=20)
    sweep.add_argument(
        "--types",
        nargs="+",
        default=None,
        metavar="TYPE",
        help="endpoint types to probe (default: the full catalog)",
    )
    sweep.add_argument(
        "--window", type=float, default=50.0, help="simulated seconds per cell"
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; output is identical either way)",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache; repeat sweeps reuse stored cells",
    )
    _add_scheme_selector(sweep)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection scheme sweep (repro-chaos/1 JSON)",
    )
    _add_common(chaos)
    chaos_mode = chaos.add_mutually_exclusive_group()
    chaos_mode.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized chaos sweep (the default)",
    )
    chaos_mode.add_argument(
        "--full",
        action="store_true",
        help="evaluation-sized sweep with the severe fault profile",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = serial; output is identical either way)",
    )
    chaos.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache; repeat sweeps reuse stored cells",
    )
    chaos.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON payload here (default: stdout)",
    )
    chaos.add_argument(
        "--schemes",
        nargs="+",
        choices=list(SCHEME_NAMES),
        default=None,
        metavar="SCHEME",
        help="restrict the chaos matrix to a scheme subset (default: all)",
    )

    lint = sub.add_parser(
        "lint",
        help="domain-aware static analysis (REP rules, SARIF)",
    )
    devtools_lint.configure_parser(lint)

    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _print_region_sweeps(
    args: argparse.Namespace,
    types: Sequence[RequestType],
    title: str,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    **analyzer_options: float,
) -> None:
    """Sweep the region grid once per selected scheme and print it.

    Each sweep prints its zone table and DOPE-cell count; several
    schemes add a by-scheme summary.  *title* is formatted with the
    ``budget``, ``agents``, ``cells`` and ``label`` of each sweep, and
    *analyzer_options* go to :class:`DopeRegionAnalyzer`.
    """
    summary = []
    for scheme in _selected_schemes(args):
        analyzer = DopeRegionAnalyzer(
            config=_config(args),
            num_agents=args.agents,
            scheme=scheme,
            **analyzer_options,
        )
        result = analyzer.sweep(types, args.rates, workers=workers, cache=cache)
        label = scheme if scheme else "unmanaged"
        print(
            format_table(
                ["type"] + [f"{int(r)}rps" for r in args.rates],
                [
                    (t.name, *(result.zone_of(t.name, r) for r in args.rates))
                    for t in types
                ],
                title=title.format(
                    budget=args.budget,
                    agents=args.agents,
                    cells=len(result.cells),
                    label=label,
                ),
            )
        )
        dope = result.dope_cells()
        print(
            f"\n{len(dope)} of {len(result.cells)} swept cells are in the "
            "DOPE region"
        )
        summary.append((label, len(dope), len(result.cells)))
    if len(summary) > 1:
        print()
        print(
            format_table(
                ["scheme", "dope cells", "swept"],
                summary,
                title="DOPE-region size by scheme",
            )
        )


def cmd_region(args: argparse.Namespace) -> int:
    """``repro region`` — sweep and print the DOPE region map."""
    _print_region_sweeps(
        args, ALL_TYPES, "DOPE region ({budget}, {agents} agents, {label})"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare`` — run the scheme matrix at one budget."""
    rows = []
    for name in args.schemes:
        config = _config(args)
        sim = DataCenterSimulation(config, scheme=make_scheme(name, config))
        sim.add_normal_traffic(rate_rps=40)
        sim.add_flood(
            mix=dope_mix(),
            rate_rps=args.attack_rate,
            num_agents=20,
            start_s=30.0,
        )
        sim.run(args.duration)
        stats = sim.latency_stats(
            traffic_class=TrafficClass.NORMAL, start_s=60.0
        )
        avail = sim.availability_report(
            sla_s=0.5, traffic_class=TrafficClass.NORMAL, start_s=60.0
        )
        rows.append(
            (
                name,
                stats.mean * 1e3,
                stats.p90 * 1e3,
                avail.availability,
                sim.meter.peak_power(),
            )
        )
    print(
        format_table(
            ["scheme", "mean ms", "p90 ms", "availability", "peak W"],
            rows,
            title=(
                f"Scheme comparison @ {args.budget}, "
                f"{args.attack_rate:.0f} rps DOPE flood"
            ),
        )
    )
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    """``repro attack`` — run the adaptive attacker and print its trace."""
    config = _config(args)
    sim = DataCenterSimulation(config, scheme=make_scheme(args.scheme, config))
    sim.add_normal_traffic(rate_rps=30)
    meter, budget = sim.meter, sim.budget

    def effective() -> bool:
        """Attacker oracle: did recent power exceed the budget?"""
        recent = meter.powers()[-20:]
        return bool(len(recent) and recent.max() > budget.supply_w)

    attacker = sim.add_dope_attacker(
        initial_rate_rps=50.0,
        rate_step_rps=75.0,
        max_rate_rps=args.max_rate,
        num_agents=args.agents,
        adjust_interval_s=20.0,
        effect_signal=effective,
    )
    sim.run(args.duration)
    print(
        format_table(
            ["t", "rate rps", "per-agent", "detected", "effective", "state"],
            [
                (
                    a.time_s,
                    a.rate_rps,
                    a.rate_rps / a.num_agents,
                    a.detected,
                    a.effective,
                    a.state.value,
                )
                for a in attacker.stats.adjustments
            ],
            title="DOPE probe-and-adjust trace",
        )
    )
    print(f"\nconverged: {attacker.stats.converged}  "
          f"final rate: {attacker.stats.final_rate:.0f} rps  "
          f"bans: {sim.firewall.stats.bans}  "
          f"peak: {sim.meter.peak_power():.0f} W / {budget.supply_w:.0f} W budget")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep`` — the region grid via the experiment runner."""
    types = (
        ALL_TYPES
        if args.types is None
        else tuple(get_type(name) for name in args.types)
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    _print_region_sweeps(
        args,
        types,
        "DOPE region sweep ({budget}, {agents} agents, {cells} cells, {label})",
        workers=args.workers,
        cache=cache,
        window_s=args.window,
    )
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es)")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos`` — emit the fault-injection sweep payload."""
    mode = "full" if args.full else "smoke"
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    payload = run_chaos(
        mode=mode,
        seed=args.seed,
        budget=args.budget,
        num_servers=args.servers,
        workers=args.workers,
        cache=cache,
        topology=args.topology,
        schemes=args.schemes,
    )
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(text + "\n")
        cells = payload["cells"]
        print(f"wrote {args.out}  ({len(cells)} cells)")  # type: ignore[arg-type]
    else:
        print(text)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint`` — run the static analysis suite."""
    return devtools_lint.run(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "region": cmd_region,
        "compare": cmd_compare,
        "attack": cmd_attack,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
