"""The typed-core gate: the strict-mypy modules stay fully annotated.

CI's static-analysis job runs mypy itself; these tests keep the gate
honest from inside the test suite. The annotation-completeness check is
pure AST — it runs everywhere, including environments without mypy — and
enforces the same contract as ``disallow_untyped_defs`` +
``disallow_incomplete_defs``: every function in a typed-core module
annotates every parameter and its return. The mypy test proper runs only
where mypy is importable (it is in CI) and must come back clean.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

tomllib = pytest.importorskip(
    "tomllib", reason="tomllib is 3.11+; the gate runs on CI's 3.11 job"
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: The strict typed core, as module names (must mirror pyproject.toml).
TYPED_CORE = (
    "repro.core.ledger",
    "repro.devtools.lint",
    "repro.devtools.lint.__main__",
    "repro.devtools.lint.framework",
    "repro.devtools.lint.report",
    "repro.devtools.lint.rules",
    "repro.devtools.lint.suppressions",
    "repro.registry",
    "repro.scenarios.events",
    "repro.sim.runner",
    "repro.sim.session",
    "repro.serve",
    "repro.serve.admission",
    "repro.serve.metrics",
    "repro.serve.service",
    "repro.serve.traffic",
    "repro.workload.adversarial",
)


def _module_path(module: str) -> Path:
    parts = module.split(".")
    package = SRC.joinpath(*parts)
    if package.is_dir():
        return package / "__init__.py"
    return package.with_suffix(".py")


def _mypy_overrides() -> list[dict]:
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["tool"]["mypy"]["overrides"]


class TestGateConfiguration:
    def test_py_typed_marker_ships(self):
        assert (SRC / "repro" / "py.typed").exists(), (
            "src/repro/py.typed is the PEP 561 marker telling type "
            "checkers the package carries inline types; do not drop it"
        )

    def test_pyproject_lists_the_typed_core(self):
        strict = [
            override
            for override in _mypy_overrides()
            if override.get("ignore_errors") is False
        ]
        assert len(strict) == 1, "expected exactly one strict override block"
        assert tuple(strict[0]["module"]) == TYPED_CORE, (
            "pyproject's strict-core module list drifted from the gate "
            "test's; update both together (promotion is deliberate)"
        )
        for flag in (
            "disallow_untyped_defs",
            "disallow_incomplete_defs",
            "check_untyped_defs",
        ):
            assert strict[0][flag] is True, f"strict core must set {flag}"

    def test_baseline_override_stays_lenient(self):
        baseline = [
            override
            for override in _mypy_overrides()
            if override.get("module") == "repro.*"
        ]
        assert len(baseline) == 1
        assert baseline[0]["ignore_errors"] is True


def _unannotated_defs(path: Path) -> list[str]:
    """``name:line`` for every def missing a param or return annotation."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        params = list(arguments.posonlyargs) + list(arguments.args) + list(
            arguments.kwonlyargs
        )
        # ``self``/``cls`` never need annotations (mypy agrees).
        if params and params[0].arg in ("self", "cls"):
            params = params[1:]
        missing = [p.arg for p in params if p.annotation is None]
        for vararg in (arguments.vararg, arguments.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if node.returns is None and node.name != "__init__":
            missing.append("return")
        if missing:
            problems.append(
                f"{node.name}:{node.lineno} missing {', '.join(missing)}"
            )
    return problems


class TestAnnotationCompleteness:
    """The mypy-free half of the gate (runs in every environment)."""

    @pytest.mark.parametrize("module", TYPED_CORE)
    def test_every_def_is_fully_annotated(self, module):
        path = _module_path(module)
        assert path.exists(), f"typed-core module {module} has no file"
        problems = _unannotated_defs(path)
        assert not problems, (
            f"{module} is in the strict typed core but has unannotated "
            f"functions (disallow_untyped_defs would reject them): "
            + "; ".join(problems)
        )


class TestMypyGate:
    """The real check — runs wherever mypy is importable (CI is)."""

    def test_typed_core_is_mypy_clean(self):
        mypy_api = pytest.importorskip(
            "mypy.api", reason="mypy not installed; CI runs this gate"
        )
        stdout, stderr, status = mypy_api.run(
            [
                "--config-file",
                str(PYPROJECT),
                "--no-incremental",
                str(SRC / "repro"),
            ]
        )
        assert status == 0, (
            f"mypy gate failed (exit {status}):\n{stdout}\n{stderr}"
        )
