"""The determinism linter: framework mechanics, rule corpus, src gate.

Three layers:

* unit tests for the framework (import resolution, scope inference,
  suppression parsing, report formats, exit codes);
* a corpus replay — every file under ``tests/lint_corpus/`` declares the
  findings it expects in an ``EXPECTED`` map, including a reconstruction
  of the real pre-PR-3 ``split_gpu_datacenters`` set-iteration bug;
* the tier-1 gate: ``repro.devtools.lint`` over the shipped ``src`` tree
  must report zero unsuppressed findings.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintError,
    default_rules,
    lint_file,
    run_lint,
    select_rules,
)
from repro.devtools.lint.__main__ import main as lint_main
from repro.devtools.lint.framework import FileContext, ImportTable
from repro.devtools.lint.report import JSON_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = Path(__file__).resolve().parent / "lint_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.py"))


def lint_source(tmp_path: Path, source: str, name: str = "sample.py"):
    """Lint an inline source string; returns the findings list."""
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return lint_file(path, default_rules(), name)


def active(findings):
    return [f for f in findings if not f.suppressed]


# -- the shipped tree is clean (tier-1 gate) ---------------------------------


class TestSourceTreeIsClean:
    def test_src_has_zero_unsuppressed_findings(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.files_scanned > 70
        messages = [f.format_human() for f in report.new]
        assert report.new == [], "\n".join(messages)

    def test_every_suppression_carries_a_reason(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert report.suppressed, "expected documented suppressions in src"
        for finding in report.suppressed:
            assert len(finding.suppress_reason) >= 10, finding.format_human()

    def test_src_is_rps_clean(self):
        """RPS104 alone passes the shipped tree: every registration in
        ``src`` happens at import scope, where a worker replays it."""
        report = run_lint(
            [REPO_ROOT / "src"],
            rules=select_rules(["RPS"]),
            root=REPO_ROOT,
        )
        messages = [f.format_human() for f in report.new]
        assert report.new == [], "\n".join(messages)


# -- corpus replay ------------------------------------------------------------


def corpus_expected(path: Path) -> dict[str, list[int]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", "") == "EXPECTED"
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} has no EXPECTED map")


class TestCorpusReplay:
    def test_corpus_is_populated(self):
        names = {path.name for path in CORPUS_FILES}
        for rule in range(1, 7):
            assert any(f"rpr00{rule}" in name for name in names), (
                f"no corpus file exercises RPR00{rule}"
            )
        assert any("rps104" in name for name in names), (
            "no corpus file exercises RPS104"
        )

    @pytest.mark.parametrize(
        "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
    )
    def test_findings_match_expected(self, path):
        findings = lint_file(path, default_rules(), path.name)
        got: dict[str, list[int]] = {}
        for finding in active(findings):
            got.setdefault(finding.rule, []).append(finding.line)
        assert got == corpus_expected(path)

    def test_rpr001_catches_the_pre_pr3_split_gpu_bug(self):
        """The motivating real bug: split order followed the hash seed."""
        path = CORPUS_DIR / "rpr001_set_iteration.py"
        findings = lint_file(path, select_rules(["RPR001"]), path.name)
        by_context = {f.context for f in active(findings)}
        assert "split_gpu_datacenters_pre_pr3" in by_context
        assert "split_gpu_datacenters_post_pr3" not in by_context


# -- rule selection -----------------------------------------------------------


class TestRuleSelection:
    def test_family_prefix_selects_whole_family(self):
        ids = sorted(rule.rule_id for rule in select_rules(["RPS"]))
        assert ids == ["RPS104"]
        ids = sorted(rule.rule_id for rule in select_rules(["RPR"]))
        assert ids == [f"RPR00{n}" for n in range(1, 7)]

    def test_exact_id_still_works(self):
        (rule,) = select_rules(["RPR002"])
        assert rule.rule_id == "RPR002"

    def test_prefix_and_exact_tokens_union(self):
        ids = sorted(
            rule.rule_id for rule in select_rules(["RPS", "RPR001"])
        )
        assert ids == ["RPR001", "RPS104"]

    def test_unknown_token_raises(self):
        with pytest.raises(LintError):
            select_rules(["RPX"])

    def test_subset_run_ignores_foreign_suppressions(self, tmp_path):
        """A suppression for an unselected rule must not trip RPR901."""
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(s: set):\n"
            "    return list(s)  # repro-lint: allow[RPR001] fixture safe here\n",
            encoding="utf-8",
        )
        findings = lint_file(path, select_rules(["RPR003"]), "mod.py")
        assert findings == []

    def test_subset_run_still_flags_judgeable_unused(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f():\n"
            "    return 1  # repro-lint: allow[RPR003] nothing clocked here\n",
            encoding="utf-8",
        )
        findings = lint_file(path, select_rules(["RPR003"]), "mod.py")
        assert [f.rule for f in findings] == ["RPR901"]


# -- scope/import tracking ----------------------------------------------------


class TestImportTable:
    def qualify(self, source: str, expr: str) -> str | None:
        table = ImportTable()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                table.record(node)
        return table.qualify(ast.parse(expr, mode="eval").body)

    def test_plain_import(self):
        assert self.qualify("import time", "time.time") == "time.time"

    def test_aliased_import(self):
        assert self.qualify("import numpy as np", "np.random.rand") == (
            "numpy.random.rand"
        )

    def test_from_import_with_alias(self):
        assert self.qualify(
            "from time import perf_counter as pc", "pc"
        ) == "time.perf_counter"

    def test_dotted_import_alias(self):
        assert self.qualify(
            "import os.path as osp", "osp.join"
        ) == "os.path.join"

    def test_unresolvable_dynamic_expr(self):
        assert self.qualify("import time", "get_clock().time") is None


class TestScopeInference:
    def test_annotated_parameter_is_set_typed(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(items: set):\n    return [x for x in items]\n",
        )
        assert [f.rule for f in findings] == ["RPR001"]

    def test_set_returning_local_function(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def make() -> set[int]:\n"
            "    return {1, 2}\n"
            "def use():\n"
            "    items = make()\n"
            "    return list(items)\n",
        )
        assert [f.rule for f in findings] == ["RPR001"]

    def test_rebinding_clears_set_type(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(raw):\n"
            "    items = set(raw)\n"
            "    items = sorted(items)\n"
            "    return [x for x in items]\n",
        )
        assert findings == []

    def test_set_union_expression(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(a: set, b: set):\n"
            "    for x in a | b:\n"
            "        print(x)\n",
        )
        assert [f.rule for f in findings] == ["RPR001"]

    def test_inner_scope_does_not_leak(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def outer():\n"
            "    def inner():\n"
            "        items = set()\n"
            "        return items\n"
            "    items = [1]\n"
            "    return [x for x in items]\n",
        )
        assert findings == []


# -- suppressions -------------------------------------------------------------


class TestSuppressions:
    def test_allow_with_reason_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(s: set):\n"
            "    return list(s)  # repro-lint: allow[RPR001] proven safe here\n",
        )
        assert active(findings) == []
        (finding,) = findings
        assert finding.suppressed
        assert finding.suppress_reason == "proven safe here"

    def test_unused_allow_is_an_error(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f():\n"
            "    return 1  # repro-lint: allow[RPR001] nothing happens here\n",
        )
        assert [f.rule for f in findings] == ["RPR901"]

    def test_missing_reason_is_malformed_and_inert(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(s: set):\n    return list(s)  # repro-lint: allow[RPR001]\n",
        )
        assert sorted(f.rule for f in findings) == ["RPR001", "RPR900"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(s: set):\n"
            "    return list(s)  # repro-lint: allow[RPR004] wrong rule\n",
        )
        assert sorted(f.rule for f in findings) == ["RPR001", "RPR901"]

    def test_marker_inside_string_is_inert(self, tmp_path):
        findings = lint_source(
            tmp_path,
            'DOC = "use # repro-lint: allow[RPR001] to suppress"\n',
        )
        assert findings == []

    def test_wildcard_allow(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n"
            "def f(s: set):\n"
            "    return list(s), time.time()  # repro-lint: allow[*] fixture needs both hazards\n",
        )
        assert active(findings) == []
        assert len([f for f in findings if f.suppressed]) == 2


# -- report formats and fingerprints -----------------------------------------


TWO_FINDINGS_SOURCE = (
    "import time\n"
    "def f(s: set):\n"
    "    return list(s)\n"
    "def g():\n"
    "    return time.time()\n"
)


class TestReports:
    def test_json_schema(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(TWO_FINDINGS_SOURCE, encoding="utf-8")
        report = run_lint([path])
        payload = json.loads(report.to_json())
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        assert payload["tool"] == "repro-lint"
        assert payload["files_scanned"] == 1
        assert payload["summary"] == {
            "total": 2, "new": 2, "suppressed": 0,
        }
        for entry in payload["findings"]:
            assert set(entry) >= {
                "rule", "path", "line", "col", "message",
                "context", "fingerprint", "suppressed",
            }
        assert payload["new"] == [
            e["fingerprint"] for e in payload["findings"]
        ]

    def test_github_annotations(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def f(s: set):\n    return list(s)\n")
        report = run_lint([path])
        output = report.to_github()
        assert "::error file=" in output
        assert "title=RPR001" in output

    def test_fingerprint_survives_line_drift(self, tmp_path):
        first = lint_source(
            tmp_path, "def f(s: set):\n    return list(s)\n", "a.py"
        )
        shifted = lint_source(
            tmp_path,
            "import json\n\n\ndef f(s: set):\n    return list(s)\n",
            "a.py",
        )
        assert first[0].fingerprint == shifted[0].fingerprint

    def test_fingerprint_distinguishes_contexts(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "def f(s: set):\n    return list(s)\n"
            "def g(s: set):\n    return list(s)\n",
        )
        assert findings[0].fingerprint != findings[1].fingerprint


# -- CLI ----------------------------------------------------------------------


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = [1, 2]\n", encoding="utf-8")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def f(s: set):\n    return list(s)\n", encoding="utf-8"
        )
        assert lint_main([str(tmp_path)]) == 1
        assert "RPR001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert lint_main([str(tmp_path), "--select", "RPR999"]) == 2

    def test_json_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def f(s: set):\n    return list(s)\n", encoding="utf-8"
        )
        assert lint_main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\n"
            "def f(s: set):\n    return list(s)\n"
            "def g():\n    return time.time()\n",
            encoding="utf-8",
        )
        assert lint_main([str(tmp_path), "--select", "RPR003"]) == 1
        out = capsys.readouterr().out
        assert "RPR003" in out and "RPR001" not in out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPS104",
        ]

    def test_select_family_prefix_from_cli(self, tmp_path, capsys):
        (tmp_path / "late.py").write_text(
            "from repro.registry import algorithm_registry\n"
            "def late(name, factory):\n"
            "    algorithm_registry.register(name)(factory)\n",
            encoding="utf-8",
        )
        assert lint_main([str(tmp_path), "--select", "RPS"]) == 1
        out = capsys.readouterr().out
        assert "RPS104" in out and "RPR" not in out


# -- framework edge cases -----------------------------------------------------


class TestFrameworkEdges:
    def test_unparseable_file_raises_lint_error(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        with pytest.raises(LintError, match="cannot parse"):
            FileContext.parse(path)

    def test_findings_are_sorted_by_position(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n"
            "def g():\n    return time.time()\n"
            "def f(s: set):\n    return list(s)\n",
        )
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_directory_traversal_is_deterministic(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text(
                "def f(s: set):\n    return list(s)\n", encoding="utf-8"
            )
        report = run_lint([tmp_path])
        assert [f.path for f in report.findings] == sorted(
            f.path for f in report.findings
        )
