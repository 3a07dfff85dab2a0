"""repro-lint: the determinism auditor.

A custom AST lint suite that statically enforces the reproducibility
contract the dynamic harness checks end-to-end: no hash-order iteration,
no global RNG, no wall-clock leakage into results, no capacity writes
that skip the residual shift, no unordered float accumulation, no frozen
record mutation. Run it as::

    python -m repro.devtools.lint src            # human output
    python -m repro.devtools.lint src --json     # machine output

Full catalog, suppression workflow and rule-authoring guide:
docs/ANALYSIS.md.
"""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint.framework import (
    FileContext,
    Finding,
    ImportTable,
    LintError,
    LintRule,
    ScopedVisitor,
    lint_file,
    lint_paths,
)
from repro.devtools.lint.report import JSON_SCHEMA_VERSION, LintReport
from repro.devtools.lint.rules import ALL_RULES, default_rules, select_rules

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "ImportTable",
    "JSON_SCHEMA_VERSION",
    "LintError",
    "LintReport",
    "LintRule",
    "ScopedVisitor",
    "default_rules",
    "lint_file",
    "lint_paths",
    "run_lint",
    "select_rules",
]


def run_lint(
    paths: list[Path],
    *,
    rules: list[LintRule] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Lint ``paths`` and assemble the report (the API the CLI/tests use)."""
    findings, files_scanned = lint_paths(
        paths, rules if rules is not None else default_rules(), root=root
    )
    return LintReport(findings=findings, files_scanned=files_scanned)
