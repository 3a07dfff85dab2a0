"""Parallel-safety & snapshot-integrity rules (RPS101–RPS104).

The RPR rules (:mod:`repro.devtools.lint.rules`) are intra-function;
this family is interprocedural, built on the project call graph
(:mod:`repro.devtools.callgraph`). Together they certify the two
boundaries the sharded serving tier (ROADMAP item 1) depends on: the
*pool boundary* (everything handed to a ``ProcessPoolExecutor`` /
:class:`~repro.sim.runner.ParallelRunner` must pickle, and worker code
must not mutate per-process module state) and the *pickle boundary*
(everything a ``SessionSnapshot`` captures must round-trip
``to_bytes()``/``from_bytes()`` complete and self-contained).

========  ==============================================================
RPS101    unpicklable values crossing a pool/pickle boundary — lambdas,
          local defs, generators submitted to a pool; locks, open
          handles, executors stored on snapshot-crossing objects
RPS102    module-level mutable state written by worker-reachable code or
          inside a pool-driving module — each worker process owns a
          private copy that silently diverges (the ``_pools`` /
          ``_default_runner`` hazard class)
RPS103    snapshot-incomplete state on pickle-crossing classes —
          class-level mutable defaults and instance attributes aliasing
          module globals survive ``restore()`` stale
RPS104    registry mutation at call time (registration outside module
          import scope) — worker processes replay imports, not calls,
          so late registrations exist in some processes and not others
========  ==============================================================

The runtime cross-check for this family is the snapshot round-trip
oracle in ``tests/test_event_oracle.py`` (every registered algorithm ×
event profile, bit-identical continuation after a pickle round trip) —
the dynamic test that keeps these static rules honest.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.callgraph import (
    AttributeWrite,
    FunctionInfo,
    GlobalWrite,
    ModuleInfo,
    ProjectGraph,
    describe_unpicklable,
    is_mutable_expression,
)
from repro.devtools.lint.framework import (
    FileContext,
    Finding,
    LintRule,
)

__all__ = [
    "ProjectRule",
    "RuleParallelUnpicklable",
    "RuleWorkerGlobalMutation",
    "RuleSnapshotStaleState",
    "RuleCallTimeRegistration",
]


class ProjectRule(LintRule):
    """A rule whose analysis needs the whole-project call graph.

    ``lint_paths`` builds one :class:`ProjectGraph` over every file in
    the run and hands it to :meth:`bind`; the analysis then runs once
    and its findings are replayed per file as ``check`` is called. When
    a rule is used unbound (the single-file ``lint_file`` API, e.g. the
    corpus replay tests), the "project" degrades gracefully to just that
    file — resolution is weaker but the rule still works.
    """

    requires_project = True

    def __init__(self) -> None:
        self._project: ProjectGraph | None = None
        self._memo: dict[int, dict[str, list[Finding]]] = {}

    def bind(self, project: ProjectGraph) -> None:
        self._project = project

    def check(self, context: FileContext) -> Iterator[Finding]:
        project = self._project
        if project is None:
            project = ProjectGraph.from_contexts([context])
        key = id(project)
        if key not in self._memo:
            self._memo[key] = self._analyze(project)
        yield from self._memo[key].get(context.module, [])

    def _analyze(self, project: ProjectGraph) -> dict[str, list[Finding]]:
        raise NotImplementedError

    def project_finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        qualname: str = "<module>",
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            context=qualname,
        )


def _eligible_writes(
    function: FunctionInfo, module: ModuleInfo
) -> Iterator[GlobalWrite]:
    """The module-global mutations in ``function`` that RPS102 cares about.

    A ``global``-declared rebind counts against any module-level binding
    (rebinding diverges per process even when the value is immutable —
    the ``_default_runner`` case); subscript/mutator/attribute writes
    count only against module-level *mutable* values (the ``_pools``
    case).
    """
    for write in function.writes:
        if write.kind == "rebind":
            if write.name in module.module_globals:
                yield write
        elif write.name in module.mutable_globals:
            yield write


# -- RPS101 -------------------------------------------------------------------


class RuleParallelUnpicklable(ProjectRule):
    rule_id = "RPS101"
    summary = (
        "unpicklable value crossing a pool/pickle boundary (lambda/local "
        "def submitted to a pool; lock/open handle/executor stored on a "
        "snapshot-crossing object)"
    )

    def _analyze(self, project: ProjectGraph) -> dict[str, list[Finding]]:
        findings: dict[str, list[Finding]] = {}
        for submission in project.submissions:
            if submission.unpicklable is None:
                continue
            module = project.modules[submission.module]
            findings.setdefault(submission.module, []).append(
                self.project_finding(
                    module,
                    submission.node,
                    f"{submission.unpicklable} handed to a process-pool "
                    f"{submission.kind}() cannot cross the pickle boundary "
                    "— workers receive their callable by pickling; submit "
                    "a module-level function or a picklable __call__ "
                    "object instead",
                    submission.function,
                )
            )
        roots = project.pickle_roots()
        for qualname in sorted(roots):
            info = project.classes[qualname]
            module = project.modules[info.module]
            for name, statement in info.class_attrs.items():
                value = info.class_attr_value(name)
                if value is None:
                    continue
                phrase = describe_unpicklable(value, module.imports)
                if phrase is not None:
                    findings.setdefault(info.module, []).append(
                        self.project_finding(
                            module,
                            statement,
                            f"{info.name}.{name} holds {phrase} — "
                            f"{info.name} crosses a snapshot/pool pickle "
                            "boundary, and pickle cannot serialize it; "
                            "keep process-local resources off the class "
                            "or exclude them via __getstate__",
                            info.name,
                        )
                    )
            for write in info.instance_writes:
                if write.value is None:
                    continue
                phrase = describe_unpicklable(write.value, module.imports)
                if phrase is not None:
                    method = project.functions.get(write.method)
                    findings.setdefault(info.module, []).append(
                        self.project_finding(
                            module,
                            write.node,
                            f"self.{write.attr} is assigned {phrase} — "
                            f"{info.name} crosses a snapshot/pool pickle "
                            "boundary (SessionSnapshot / ParallelRunner), "
                            "and pickle cannot serialize it; keep "
                            "process-local resources off the instance or "
                            "exclude them via __getstate__",
                            method.name if method is not None else info.name,
                        )
                    )
        return findings


# -- RPS102 -------------------------------------------------------------------


class RuleWorkerGlobalMutation(ProjectRule):
    rule_id = "RPS102"
    summary = (
        "module-level mutable state written by worker-reachable code or "
        "inside a pool-driving module (per-process copies silently "
        "diverge — the _pools/_default_runner hazard class)"
    )

    def _analyze(self, project: ProjectGraph) -> dict[str, list[Finding]]:
        findings: dict[str, list[Finding]] = {}
        seen: set[int] = set()
        reachable = project.reachable(project.worker_entrypoints())
        for qualname in sorted(reachable):
            function = project.functions[qualname]
            module = project.modules[function.module]
            for write in _eligible_writes(function, module):
                if id(write.node) in seen:
                    continue
                seen.add(id(write.node))
                findings.setdefault(function.module, []).append(
                    self.project_finding(
                        module,
                        write.node,
                        f"{function.name}() is reachable from a worker "
                        f"entrypoint and writes module-level mutable "
                        f"{write.name!r} — every pool worker mutates a "
                        "private per-process copy that silently diverges "
                        "from the parent; thread the state through "
                        "arguments/results instead",
                        function.name,
                    )
                )
        for module_name in sorted(project.modules):
            module = project.modules[module_name]
            if not module.defines_pool:
                continue
            for function in project.functions_in(module_name):
                for write in _eligible_writes(function, module):
                    if id(write.node) in seen:
                        continue
                    seen.add(id(write.node))
                    findings.setdefault(module_name, []).append(
                        self.project_finding(
                            module,
                            write.node,
                            f"{function.name}() writes module-level "
                            f"mutable {write.name!r} in a pool-driving "
                            "module — workers import this module and own "
                            "private copies, so the write never "
                            "propagates across the pool; keep the "
                            "mutation parent-process-only (and guard it) "
                            "or pass the state explicitly",
                            function.name,
                        )
                    )
        return findings


# -- RPS103 -------------------------------------------------------------------


class RuleSnapshotStaleState(ProjectRule):
    rule_id = "RPS103"
    summary = (
        "snapshot-incomplete state on a pickle-crossing class "
        "(class-level mutable default, or an instance attribute "
        "aliasing a module-level mutable — survives restore() stale)"
    )

    def _analyze(self, project: ProjectGraph) -> dict[str, list[Finding]]:
        findings: dict[str, list[Finding]] = {}
        for qualname in sorted(project.pickle_roots()):
            info = project.classes[qualname]
            module = project.modules[info.module]
            for name, statement in info.class_attrs.items():
                value = info.class_attr_value(name)
                if value is None:
                    continue
                if is_mutable_expression(value, module.imports):
                    findings.setdefault(info.module, []).append(
                        self.project_finding(
                            module,
                            statement,
                            f"class-level mutable default {info.name}."
                            f"{name} — pickled snapshots capture "
                            "instance state only, so a restored session "
                            "aliases whatever the live class object has "
                            "mutated since; make it an instance attribute "
                            "set in __init__",
                            info.name,
                        )
                    )
            for write in info.instance_writes:
                aliased = self._aliased_global(project, info.module, write)
                if aliased is not None:
                    method = project.functions.get(write.method)
                    findings.setdefault(info.module, []).append(
                        self.project_finding(
                            module,
                            write.node,
                            f"self.{write.attr} aliases module-level "
                            f"mutable {aliased!r} — the snapshot "
                            "pickles the alias by value, so a restored session "
                            "silently diverges from the live module "
                            "state; copy it explicitly or pass it in",
                            method.name if method is not None else info.name,
                        )
                    )
        return findings

    def _aliased_global(
        self,
        project: ProjectGraph,
        class_module: str,
        write: AttributeWrite,
    ) -> str | None:
        """Name of the module-level mutable ``self.attr = X`` aliases."""
        value = write.value
        method = write.method
        if isinstance(value, ast.Name):
            function = project.functions.get(method)
            if function is not None and value.id in function.local_names:
                return None
            module = project.modules.get(class_module)
            if module is not None and value.id in module.mutable_globals:
                return value.id
            return None
        if isinstance(value, ast.Attribute):
            module = project.modules.get(class_module)
            if module is None:
                return None
            candidate = module.imports.qualify(value)
            if candidate is None or "." not in candidate:
                return None
            owner, attr = candidate.rsplit(".", 1)
            owning = project.modules.get(owner)
            if owning is not None and attr in owning.mutable_globals:
                return candidate
        return None


# -- RPS104 -------------------------------------------------------------------


class _RegistryMutationVisitor(ast.NodeVisitor):
    """Flags registry registration/unregistration inside function bodies.

    Decorators on module- or class-level defs run at import time and are
    the sanctioned registration path; the visitor therefore inspects a
    def's decorators *before* entering its scope, so only genuinely
    call-time mutation (inside a function body) is flagged.
    """

    def __init__(self, rule: LintRule, context: FileContext) -> None:
        self.rule = rule
        self.context = context
        self.findings: list[Finding] = []
        self._depth = 0
        self._names: list[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._names) or "<module>"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._names.append(node.name)
        self._depth += 1
        try:
            for statement in node.body:
                self.visit(statement)
        finally:
            self._depth -= 1
            self._names.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self._names.append(node.name)
        try:
            for statement in node.body:
                self.visit(statement)
        finally:
            self._names.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth > 0:
            verb = self._registry_mutation(node)
            if verb is not None:
                self.findings.append(
                    self.rule.finding(
                        self.context,
                        node,
                        f"registry {verb} at call time — worker processes "
                        "and restored sessions replay module imports, not "
                        "call sequences, so a registration made inside a "
                        "function exists in some processes and not "
                        "others; register at module import scope (the "
                        "decorator form), or unregister in the same "
                        "test-local finally block that registered",
                        self.qualname,
                    )
                )
        self.generic_visit(node)

    def _registry_mutation(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "register",
            "unregister",
        ):
            receiver = self.context.imports.qualify(func.value)
            if receiver is not None and "registry" in receiver.lower():
                return f"{func.attr}() call"
            return None
        qual = self.context.imports.qualify(func)
        if qual is None:
            return None
        tail = qual.rsplit(".", 1)[-1]
        if tail.startswith("register_"):
            return f"{tail}() call"
        return None


class RuleCallTimeRegistration(LintRule):
    rule_id = "RPS104"
    summary = (
        "registry mutation at call time (registration outside module "
        "import scope) — processes replay imports, not calls, so late "
        "registrations diverge across workers"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_module("repro/registry.py"):
            return  # the owning module defines the registration machinery
        visitor = _RegistryMutationVisitor(self, context)
        visitor.visit(context.tree)
        yield from visitor.findings
