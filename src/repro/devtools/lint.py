"""Command-line front end for the :mod:`repro.devtools` linter.

Usage::

    python -m repro lint src/repro                 # text report
    python -m repro lint src/repro --format json
    python -m repro lint src/repro --format sarif --out lint.sarif
    python -m repro lint src/repro --rules REP009,REP010
    python -m repro lint --list-rules

``python -m repro.devtools.lint`` is a historical alias with the same
flags (kept because ``scripts/check.sh`` and docs referenced it long
before the main CLI grew a ``lint`` subcommand; both paths call the
same :func:`run`).

Exit status: 0 when no finding survives the inline
``# repro: ignore[REPxxx]`` pragmas, 1 otherwise, 2 on usage errors.
``scripts/check.sh`` runs this ahead of the tier-1 test suite, and
``tests/test_static_analysis.py`` enforces a zero-finding tree as a
tier-1 gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import dataflow as _dataflow  # noqa: F401  (importing registers the rules)
from . import reachability as _reachability  # noqa: F401
from . import registries as _registries  # noqa: F401
from . import rules as _rules  # noqa: F401
from .engine import lint_paths, registered_rules, render_json, render_text
from .sarif import render_sarif

__all__ = ["configure_parser", "run", "main"]


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to *parser* (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def run(
    options: argparse.Namespace,
    parser: Optional[argparse.ArgumentParser] = None,
) -> int:
    """Execute a parsed lint invocation; returns the exit status."""
    if parser is None:
        parser = _build_parser()
    if options.list_rules:
        for rule_cls in registered_rules():
            print(f"{rule_cls.rule_id}  {rule_cls.summary}")
        return 0

    if not options.paths:
        parser.error("at least one path is required (e.g. src/repro)")

    selected = None
    if options.rules is not None:
        selected = [
            token.strip() for token in options.rules.split(",") if token.strip()
        ]

    try:
        findings = lint_paths(options.paths, rules=selected)
    except ValueError as exc:  # unknown rule id
        parser.error(str(exc))
    except OSError as exc:  # unreadable / nonexistent path
        parser.error(f"cannot read {exc.filename or 'path'}: {exc.strerror}")

    if options.format == "json":
        report = render_json(findings)
    elif options.format == "sarif":
        report = render_sarif(findings)
    else:
        report = render_text(findings)

    if options.out is not None:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return 1 if findings else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Domain-aware static analysis for the repro package "
        "(determinism, unit dataflow, layering, contracts).",
    )
    configure_parser(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    options = parser.parse_args(argv)
    return run(options, parser)


if __name__ == "__main__":
    sys.exit(main())
