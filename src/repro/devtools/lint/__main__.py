"""CLI: ``python -m repro.devtools.lint [paths] [options]``.

Exit codes: 0 — clean (no unsuppressed finding); 1 — findings;
2 — usage/environment error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.devtools.lint import (
    ALL_RULES,
    LintError,
    default_rules,
    run_lint,
    select_rules,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "repro-lint: static determinism audit of the repro source tree "
            "(rule catalog in docs/ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all, e.g. RPR001,RPR004)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --output-format json",
    )
    parser.add_argument(
        "--output-format",
        choices=("human", "json", "github"),
        default="human",
        help=(
            "human (default), json (stable schema), or github "
            "(::error workflow-command annotations for CI)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.summary}")
        return 0

    try:
        rules = (
            select_rules(args.select.split(","))
            if args.select
            else default_rules()
        )
        report = run_lint(
            [Path(p) for p in args.paths], rules=rules, root=Path.cwd()
        )
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    output_format = "json" if args.json else args.output_format
    if output_format == "json":
        print(report.to_json())
    elif output_format == "github":
        print(report.to_github())
    else:
        print(report.to_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
