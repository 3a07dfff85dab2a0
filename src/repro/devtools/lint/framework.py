"""Core machinery of the determinism linter.

The linter is a set of small AST rules sharing one analysis substrate:

* :class:`FileContext` — one parsed file plus everything a rule may need
  (source lines, import table, suppression comments).
* :class:`ImportTable` — resolves local names to their fully-qualified
  origins (``from time import perf_counter as pc`` makes ``pc()`` resolve
  to ``time.perf_counter``), including dotted attribute chains through
  module aliases (``np.random.rand`` → ``numpy.random.rand``).
* :class:`ScopedVisitor` — an :class:`ast.NodeVisitor` that maintains a
  scope stack and per-scope *set-typed* name bindings, so rules can ask
  "is this expression an unordered container?" without a type checker.
* :class:`LintRule` — the rule base class; subclasses set ``rule_id`` /
  ``summary`` and yield :class:`Finding` objects from :meth:`check`.

Rules are intentionally conservative: they only flag when the hazard is
syntactically certain (a known-``set`` name iterated, a resolved
``time.time`` call, ...). Anything deliberate is silenced inline with
``# repro-lint: allow[RPRxxx] <reason>`` — the reason is mandatory, and
an ``allow`` that suppresses nothing is itself reported (RPR901), so the
suppression inventory can never silently rot.
"""

from __future__ import annotations

import ast
import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.devtools.lint.suppressions import Suppression, parse_suppressions

__all__ = [
    "FileContext",
    "Finding",
    "ImportTable",
    "LintError",
    "LintRule",
    "ScopedVisitor",
    "lint_file",
    "lint_paths",
]


class LintError(Exception):
    """Usage or environment error (unreadable path, bad rule selection)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``context`` is the enclosing ``Class.function`` qualname (or
    ``<module>``); it feeds the fingerprint, so a finding keeps its
    identity across unrelated line drift.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    context: str = "<module>"
    suppressed: bool = False
    suppress_reason: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity of the finding (no line numbers)."""
        material = f"{self.rule}::{self.path}::{self.context}::{self.message}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def format_human(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}{mark}"
        )


class ImportTable:
    """Maps local names to fully-qualified origins for one module."""

    def __init__(self) -> None:
        self._names: dict[str, str] = {}

    def record(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                # `import a.b.c` binds `a`; `import a.b.c as x` binds the
                # full dotted path to `x`.
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                self._names[local] = target
        else:
            if node.level:  # relative imports never shadow stdlib targets
                return
            module = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                self._names[local] = f"{module}.{alias.name}" if module else alias.name

    def qualify(self, node: ast.expr) -> str | None:
        """Fully-qualified dotted name of ``node``, if resolvable.

        Resolves ``Name`` and ``Attribute`` chains through the import
        table; returns ``None`` for anything dynamic (calls, subscripts).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self._names.get(parts[0], parts[0])
        if head == "np":  # bare convention even without an import line
            head = "numpy"
        return ".".join([head, *parts[1:]])


@dataclass
class FileContext:
    """Everything the rules need to know about one source file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    imports: ImportTable
    suppressions: dict[int, Suppression]

    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> "FileContext":
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {path}: {exc}") from exc
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
        imports = ImportTable()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imports.record(node)
        return cls(
            path=path,
            display_path=display_path or str(path),
            source=source,
            tree=tree,
            imports=imports,
            suppressions=parse_suppressions(source),
        )

    def in_module(self, suffix: str) -> bool:
        """Whether this file is the owning module ``suffix`` (posix path)."""
        return self.path.as_posix().endswith(suffix)


#: Expressions that *produce* an unordered container, syntactically.
_SET_PRODUCERS = {"set", "frozenset"}
#: Calls producing filesystem listings in arbitrary / platform order.
_FS_PRODUCERS = {
    "os.listdir",
    "os.scandir",
    "glob.glob",
    "glob.iglob",
}


class ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor with a scope stack and unordered-container inference.

    Tracks, per function/module scope, which local names are bound to
    ``set``/``frozenset`` values (``x = set()``, ``x: set[int] = ...``,
    ``x = a | b`` over known sets) or to unsorted filesystem listings.
    Subclasses get :meth:`is_unordered` / :meth:`unordered_kind` to
    interrogate arbitrary expressions, and :attr:`qualname` for the
    enclosing context string.
    """

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self._scope_stack: list[dict[str, str]] = [{}]
        self._name_stack: list[str] = []
        # Module-level functions whose *return annotation* is set-typed:
        # `pairs = _random_gnm(...)` then binds `pairs` as a set.
        self._set_returning: set[str] = {
            node.name
            for node in ast.walk(context.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.returns is not None
            and _annotation_kind(node.returns) == "set"
        }

    # -- scope bookkeeping ----------------------------------------------------

    @property
    def qualname(self) -> str:
        return ".".join(self._name_stack) or "<module>"

    def _enter(self, name: str) -> None:
        self._name_stack.append(name)
        self._scope_stack.append({})

    def _leave(self) -> None:
        self._name_stack.pop()
        self._scope_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node)

    def _visit_scope(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> None:
        self._enter(node.name)
        try:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                ):
                    if arg.annotation is not None:
                        kind = _annotation_kind(arg.annotation)
                        if kind is not None:
                            self._bind(arg.arg, kind)
            self.generic_visit(node)
        finally:
            self._leave()

    # -- unordered-container inference ---------------------------------------

    def _bind(self, name: str, kind: str | None) -> None:
        scope = self._scope_stack[-1]
        if kind is None:
            scope.pop(name, None)
        else:
            scope[name] = kind

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scope_stack):
            if name in scope:
                return scope[name]
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self.unordered_kind(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, kind)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            kind = _annotation_kind(node.annotation)
            if kind is None and node.value is not None:
                kind = self.unordered_kind(node.value)
            self._bind(node.target.id, kind)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # `x |= {...}` keeps x's binding; `x += [...]` clears a stale one.
        if isinstance(node.target, ast.Name) and not isinstance(node.op, ast.BitOr):
            if self.unordered_kind(node.value) is None:
                self._bind(node.target.id, None)
        self.generic_visit(node)

    def unordered_kind(self, node: ast.expr) -> str | None:
        """``"set"`` / ``"fs"`` if ``node`` is an unordered value, else None."""
        if isinstance(node, ast.SetComp) or isinstance(node, ast.Set):
            return "set"
        if isinstance(node, ast.Call):
            qual = self.context.imports.qualify(node.func)
            if qual in _SET_PRODUCERS:
                return "set"
            if qual in _FS_PRODUCERS:
                return "fs"
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in self._set_returning
            ):
                return "set"
            return None
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            left = self.unordered_kind(node.left)
            right = self.unordered_kind(node.right)
            if "set" in (left, right):
                return "set"
            return None
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Subscript):
            return None
        return None

    def is_unordered(self, node: ast.expr) -> bool:
        return self.unordered_kind(node) is not None


def _annotation_kind(annotation: ast.expr) -> str | None:
    """Map a ``set``/``frozenset``/``Set[...]`` annotation to ``"set"``."""
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name) and target.id in (
        "set",
        "frozenset",
        "Set",
        "FrozenSet",
        "AbstractSet",
    ):
        return "set"
    return None


class LintRule:
    """Base class for one determinism rule."""

    rule_id: str = "RPR000"
    summary: str = ""

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        context: FileContext,
        node: ast.AST,
        message: str,
        qualname: str = "<module>",
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=context.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            context=qualname,
        )


#: Meta-rule ids emitted by the framework itself.
MALFORMED_SUPPRESSION = "RPR900"
UNUSED_SUPPRESSION = "RPR901"


def lint_file(
    path: Path,
    rules: Iterable[LintRule],
    display_path: str | None = None,
) -> list[Finding]:
    """Run ``rules`` over one file, applying inline suppressions.

    Suppressed findings are *returned* (marked ``suppressed=True``) so
    reports can show the inventory; meta-findings are appended for
    malformed (RPR900) and unused (RPR901) ``allow`` comments.
    """
    context = FileContext.parse(path, display_path)
    rules = list(rules)
    active_ids = {rule.rule_id for rule in rules}
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(context))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))

    used_lines: set[int] = set()
    resolved: list[Finding] = []
    for finding in findings:
        suppression = context.suppressions.get(finding.line)
        if suppression is not None and suppression.allows(finding.rule):
            used_lines.add(finding.line)
            resolved.append(
                replace(
                    finding,
                    suppressed=True,
                    suppress_reason=suppression.reason,
                )
            )
        else:
            resolved.append(finding)

    for line, suppression in sorted(context.suppressions.items()):
        if suppression.malformed:
            resolved.append(
                Finding(
                    rule=MALFORMED_SUPPRESSION,
                    path=context.display_path,
                    line=line,
                    col=1,
                    message=(
                        "malformed suppression: expected "
                        "'# repro-lint: allow[RPRxxx] <reason>' with a "
                        "non-empty reason"
                    ),
                )
            )
        elif line not in used_lines:
            # A suppression is only judged "unused" when every rule it
            # names ran — a --select subset must not condemn allows it
            # could not evaluate (allow[*] is judged by any run).
            judgeable = "*" in suppression.rules or set(
                suppression.rules
            ) <= active_ids
            if not judgeable:
                continue
            resolved.append(
                Finding(
                    rule=UNUSED_SUPPRESSION,
                    path=context.display_path,
                    line=line,
                    col=1,
                    message=(
                        f"unused suppression allow[{','.join(suppression.rules)}] "
                        "— it silences nothing on this line; delete it"
                    ),
                )
            )
    resolved.sort(key=lambda f: (f.line, f.col, f.rule))
    return resolved


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    for path in paths:
        if path.is_dir():
            # rglob order is platform-dependent; RPR001 would flag us.
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")


def lint_paths(
    paths: Iterable[Path],
    rules: Iterable[LintRule],
    root: Path | None = None,
) -> tuple[list[Finding], int]:
    """Lint every ``.py`` under ``paths``; returns (findings, files_scanned)."""
    rules = list(rules)
    findings: list[Finding] = []
    files_scanned = 0
    for file_path in iter_python_files(paths):
        display = file_path
        if root is not None:
            try:
                display = file_path.relative_to(root)
            except ValueError:
                display = file_path
        findings.extend(lint_file(file_path, rules, display.as_posix()))
        files_scanned += 1
    return findings, files_scanned
