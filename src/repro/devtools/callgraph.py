"""An import-resolving call graph over the project, built purely on ``ast``.

``repro.devtools.lint`` (PR 7) proved the pattern of codifying
reproducibility invariants as AST rules — but its rules are all
intra-function. The sharded serving tier (ROADMAP item 1) stakes
correctness on *interprocedural* properties: everything crossing a
``ProcessPoolExecutor`` submission or a ``SessionSnapshot.to_bytes()``
pickle must be serializable, and state reachable from a worker must not
alias module-level mutables that silently diverge per process. This
module is the shared analysis substrate for the rules that certify those
boundaries (the RPS1xx family in
:mod:`repro.devtools.lint.parallel_rules`):

* :class:`ProjectGraph` — every module, class and function in the
  analyzed tree, with call / reference / instantiation edges resolved
  through each module's import table (``from repro.api import
  run_single`` makes a bare ``run_single()`` resolve to
  ``repro.api.run_single``);
* attribute maps — class-body assignments and every ``self.attr = ...``
  site per class, so rules can reason about what an instance *holds*;
* boundary discovery — :attr:`ProjectGraph.submissions` lists callables
  handed to pool executors or :class:`~repro.sim.runner.ParallelRunner`,
  :meth:`ProjectGraph.worker_entrypoints` resolves them to function
  qualnames, and :meth:`ProjectGraph.pickle_roots` finds the classes
  whose instances cross a snapshot/pool pickle boundary
  (snapshot-shaped: ``snapshot``/``to_bytes``/``from_bytes``/
  ``__getstate__``/``__reduce__``; algorithm-shaped: ``release`` plus
  ``process`` or ``run_slot``; submitted task objects), expanded
  transitively through ``self.attr = ProjectClass(...)`` assignments;
* :meth:`ProjectGraph.reachable` — the BFS closure rules use for
  "reachable from a worker entrypoint" queries.

Everything is syntactic: no imports of the analyzed code, no type
inference. Resolution is deliberately conservative — an edge exists only
when the callee is certain (a resolved import, a module-local name,
``self.method``, a local variable bound to a project-class construction,
or a class attribute default such as ``run_fn: Callable = run_single``);
anything dynamic resolves to *nothing* rather than to everything, so the
rules built on top underreport instead of crying wolf.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # runtime import would be circular: framework's package
    # __init__ pulls in the rule catalog, which builds on this module.
    from repro.devtools.lint.framework import FileContext, ImportTable

__all__ = [
    "AttributeWrite",
    "ClassInfo",
    "FunctionInfo",
    "GlobalWrite",
    "ModuleInfo",
    "ProjectGraph",
    "SubmissionSite",
    "MUTABLE_CONSTRUCTORS",
    "MUTATOR_METHODS",
    "describe_unpicklable",
    "is_mutable_expression",
]


#: Calls that build a mutable container (module-level bindings to these
#: are per-process state that can silently diverge across workers).
MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "bytearray",
    "collections.deque",
    "collections.defaultdict",
    "collections.Counter",
    "collections.OrderedDict",
}

#: Constructors whose results pickle cannot serialize — process-local
#: resources that must never be stored on a snapshot-crossing object or
#: handed to a pool. Values are the human phrase used in rule messages.
UNPICKLABLE_CALLS = {
    "open": "an open file handle",
    "io.open": "an open file handle",
    "threading.Lock": "a thread lock",
    "threading.RLock": "a thread lock",
    "threading.Condition": "a thread condition",
    "threading.Event": "a thread event",
    "threading.Semaphore": "a thread semaphore",
    "threading.BoundedSemaphore": "a thread semaphore",
    "threading.local": "thread-local storage",
    "socket.socket": "a socket",
    "concurrent.futures.ProcessPoolExecutor": "a process-pool executor",
    "concurrent.futures.ThreadPoolExecutor": "a thread-pool executor",
    "concurrent.futures.process.ProcessPoolExecutor": "a process-pool executor",
    "concurrent.futures.thread.ThreadPoolExecutor": "a thread-pool executor",
    "multiprocessing.Pool": "a process pool",
    "multiprocessing.Lock": "a process lock",
    "multiprocessing.Manager": "a multiprocessing manager",
}

#: Method names that mutate a container in place. A call like
#: ``_pools.pop(...)`` on a module-level dict is a write for RPS102.
MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}

#: Executor constructors: a module that calls one of these (or submits to
#: a pool) is a *pool-defining* module — its module-level mutables exist
#: once per worker process.
_EXECUTOR_CONSTRUCTORS = {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool"}

_POOL_METHODS = {"submit", "map"}
_RUNNER_METHODS = {"repeat"}
_POOLISH_TOKENS = ("pool", "executor")
_RUNNERISH_TOKENS = ("runner",)

_SNAPSHOT_METHODS = {
    "snapshot",
    "to_bytes",
    "from_bytes",
    "__getstate__",
    "__setstate__",
    "__reduce__",
}


def is_mutable_expression(node: ast.expr, imports: ImportTable) -> bool:
    """Whether ``node`` syntactically builds a mutable container."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        qual = imports.qualify(node.func)
        if qual is None:
            return False
        return qual in MUTABLE_CONSTRUCTORS or qual.rsplit(".", 1)[-1] in {
            "deque",
            "defaultdict",
            "Counter",
            "OrderedDict",
        }
    return False


def describe_unpicklable(node: ast.expr, imports: ImportTable) -> str | None:
    """Human phrase if ``node`` builds an unpicklable value, else None."""
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(node, ast.Call):
        qual = imports.qualify(node.func)
        if qual is None:
            return None
        if qual in UNPICKLABLE_CALLS:
            return UNPICKLABLE_CALLS[qual]
        tail = qual.rsplit(".", 1)[-1]
        if tail in _EXECUTOR_CONSTRUCTORS:
            return "a pool executor"
    return None


def _name_tokens(node: ast.expr) -> list[str]:
    """Lower-cased identifier tokens in a Name/Attribute/Call chain."""
    tokens: list[str] = []
    current: ast.expr | None = node
    while current is not None:
        if isinstance(current, ast.Attribute):
            tokens.append(current.attr.lower())
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            tokens.append(current.id.lower())
            current = None
        else:
            current = None
    return tokens


def _matches_tokens(node: ast.expr, needles: Sequence[str]) -> bool:
    return any(
        needle in token for token in _name_tokens(node) for needle in needles
    )


@dataclass(frozen=True)
class GlobalWrite:
    """One mutation of a module-level binding inside a function body.

    ``kind`` is ``rebind`` (via ``global``), ``subscript``, ``mutator``
    (an in-place method like ``.pop``), ``attribute`` or ``delete``.
    """

    name: str
    kind: str
    node: ast.AST


@dataclass(frozen=True)
class AttributeWrite:
    """One ``self.attr = value`` site inside a method."""

    attr: str
    node: ast.stmt
    value: ast.expr | None
    method: str  # qualname of the method performing the write


@dataclass
class FunctionInfo:
    """One function or method, with resolved project-internal edges."""

    qualname: str  # e.g. "repro.api._PointTask.__call__"
    module: str
    name: str  # within-module qualname, e.g. "_PointTask.__call__"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qualname: str | None = None
    calls: list[str] = field(default_factory=list)
    instantiates: list[str] = field(default_factory=list)
    references: list[str] = field(default_factory=list)
    local_names: set[str] = field(default_factory=set)
    global_declared: set[str] = field(default_factory=set)
    writes: list[GlobalWrite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: bases, methods, class attrs and instance-write sites."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    class_attrs: dict[str, ast.stmt] = field(default_factory=dict)
    instance_writes: list[AttributeWrite] = field(default_factory=list)

    def class_attr_value(self, name: str) -> ast.expr | None:
        node = self.class_attrs.get(name)
        if isinstance(node, ast.Assign):
            return node.value
        if isinstance(node, ast.AnnAssign):
            return node.value
        return None


@dataclass(frozen=True)
class SubmissionSite:
    """One callable handed across a process-pool boundary."""

    node: ast.Call
    module: str
    function: str  # within-module qualname of the enclosing scope
    kind: str  # "submit" | "map" | "repeat"
    argument: ast.expr | None
    entrypoints: tuple[str, ...]  # resolved worker entrypoint qualnames
    unpicklable: str | None  # phrase when the callable cannot pickle


@dataclass
class ModuleInfo:
    """One analyzed module: its AST, imports and module-level state."""

    name: str
    path: str  # display path (what findings report)
    tree: ast.Module
    imports: ImportTable
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, str] = field(default_factory=dict)
    module_globals: set[str] = field(default_factory=set)
    mutable_globals: set[str] = field(default_factory=set)
    defines_pool: bool = False


# -- collection ---------------------------------------------------------------


@dataclass
class _RawCall:
    caller: str  # function qualname
    kind: str  # "name" | "selfattr"
    target: str  # dotted candidate or attribute name


@dataclass
class _RawSubmission:
    node: ast.Call
    module: str
    function: str
    kind: str
    argument: ast.expr | None
    spec: tuple[str, ...]  # resolution spec, see _resolve_submission
    unpicklable: str | None


@dataclass
class _Scope:
    kind: str  # "module" | "class" | "function"
    name: str
    info: FunctionInfo | ClassInfo | None
    bindings: dict[str, tuple[str, str]] = field(default_factory=dict)


class _ModuleCollector(ast.NodeVisitor):
    """Single-pass collector for one module's functions/classes/writes."""

    def __init__(self, context: FileContext, graph: "ProjectGraph") -> None:
        self.context = context
        self.graph = graph
        self.module = ModuleInfo(
            name=context.module,
            path=context.display_path,
            tree=context.tree,
            imports=context.imports,
        )
        self.raw_calls: list[_RawCall] = []
        self.raw_submissions: list[_RawSubmission] = []
        self._scopes: list[_Scope] = [_Scope("module", context.module, None)]

    # -- scope helpers --------------------------------------------------------

    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _within(self) -> str:
        """Within-module qualname of the current scope ("a.b" or "")."""
        return ".".join(s.name for s in self._scopes[1:])

    def _qualname(self, name: str) -> str:
        within = self._within()
        prefix = f"{within}." if within else ""
        return f"{self.module.name}.{prefix}{name}"

    def _enclosing_function(self) -> FunctionInfo | None:
        for scope in reversed(self._scopes):
            if scope.kind == "function":
                assert isinstance(scope.info, FunctionInfo)
                return scope.info
        return None

    def _enclosing_class(self) -> ClassInfo | None:
        for scope in reversed(self._scopes):
            if scope.kind == "class":
                assert isinstance(scope.info, ClassInfo)
                return scope.info
        return None

    def _lookup_binding(self, name: str) -> tuple[str, str] | None:
        for scope in reversed(self._scopes):
            if scope.kind == "class":
                continue  # class bodies don't leak bindings into methods
            if name in scope.bindings:
                return scope.bindings[name]
        return None

    def _is_local(self, name: str) -> bool:
        function = self._enclosing_function()
        if function is None:
            return False
        return (
            name in function.local_names
            and name not in function.global_declared
        )

    # -- definitions ----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        qualname = self._qualname(node.name)
        enclosing_class = (
            self._enclosing_class() if self._scope.kind == "class" else None
        )
        within = self._within()
        info = FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            name=f"{within}.{node.name}" if within else node.name,
            node=node,
            class_qualname=(
                enclosing_class.qualname if enclosing_class else None
            ),
        )
        arguments = node.args
        for arg in (
            *arguments.posonlyargs,
            *arguments.args,
            *arguments.kwonlyargs,
        ):
            info.local_names.add(arg.arg)
        for vararg in (arguments.vararg, arguments.kwarg):
            if vararg is not None:
                info.local_names.add(vararg.arg)
        self.graph.functions[qualname] = info
        if self._scope.kind == "module":
            self.module.functions[node.name] = qualname
        if enclosing_class is not None:
            enclosing_class.methods[node.name] = qualname
        parent_function = self._enclosing_function()
        if parent_function is not None:
            # A nested def: the outer function references (may call) it,
            # and handing it to a pool is an RPS101 unpicklable hazard.
            parent_function.references.append(qualname)
            parent_function.local_names.add(node.name)
            self._scope.bindings[node.name] = ("localfunc", qualname)
        self._scopes.append(_Scope("function", node.name, info))
        try:
            for default in (
                *arguments.defaults,
                *[d for d in arguments.kw_defaults if d is not None],
            ):
                self.visit(default)
            for statement in node.body:
                self.visit(statement)
        finally:
            self._scopes.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        qualname = self._qualname(node.name)
        info = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            node=node,
        )
        for base in node.bases:
            candidate = self.context.imports.qualify(base)
            if candidate is not None:
                info.bases.append(candidate)
        self.graph.classes[qualname] = info
        if self._scope.kind == "module":
            self.module.classes[node.name] = qualname
        self._scopes.append(_Scope("class", node.name, info))
        try:
            for statement in node.body:
                self.visit(statement)
        finally:
            self._scopes.pop()

    # -- bindings and writes --------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        function = self._enclosing_function()
        if function is not None:
            function.global_declared.update(node.names)
            # `global X` inside any function marks X as per-process
            # mutable *binding* state even when its value is immutable.
            self.module.module_globals.update(node.names)
            self.module.mutable_globals.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._handle_store(target, node, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self._handle_store(node.target, node, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            if self._scope.kind == "function":
                function = self._enclosing_function()
                assert function is not None
                if target.id in function.global_declared:
                    function.writes.append(
                        GlobalWrite(target.id, "rebind", node)
                    )
                else:
                    function.local_names.add(target.id)
        else:
            self._record_indirect_write(target, node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._record_indirect_write(target, node, kind="delete")
            self.visit(target)

    def _handle_store(
        self, target: ast.expr, statement: ast.stmt, value: ast.expr | None
    ) -> None:
        scope_kind = self._scope.kind
        if isinstance(target, ast.Name):
            if scope_kind == "module":
                self.module.module_globals.add(target.id)
                if value is not None and is_mutable_expression(
                    value, self.context.imports
                ):
                    self.module.mutable_globals.add(target.id)
            elif scope_kind == "class":
                enclosing = self._enclosing_class()
                assert enclosing is not None
                enclosing.class_attrs[target.id] = statement
            else:
                function = self._enclosing_function()
                assert function is not None
                if target.id in function.global_declared:
                    function.writes.append(
                        GlobalWrite(target.id, "rebind", statement)
                    )
                else:
                    function.local_names.add(target.id)
                    if value is not None:
                        binding = self._classify_binding(value)
                        if binding is not None:
                            self._scope.bindings[target.id] = binding
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store(element, statement, None)
        elif isinstance(target, ast.Starred):
            self._handle_store(target.value, statement, None)
        elif isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and scope_kind == "function"
            ):
                function = self._enclosing_function()
                assert function is not None
                enclosing = self.graph.classes.get(
                    function.class_qualname or ""
                )
                if enclosing is not None:
                    enclosing.instance_writes.append(
                        AttributeWrite(
                            attr=target.attr,
                            node=statement,
                            value=value,
                            method=function.qualname,
                        )
                    )
            else:
                self._record_indirect_write(target, statement)
        elif isinstance(target, ast.Subscript):
            self._record_indirect_write(target, statement)

    def _record_indirect_write(
        self, target: ast.expr, statement: ast.AST, kind: str | None = None
    ) -> None:
        """A store through ``X[...]`` or ``X.attr`` — a write *to* X."""
        if self._scope.kind != "function":
            return
        base = target
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if not isinstance(base, ast.Name) or self._is_local(base.id):
            return
        write_kind = kind or (
            "subscript" if isinstance(target, ast.Subscript) else "attribute"
        )
        function = self._enclosing_function()
        assert function is not None
        function.writes.append(GlobalWrite(base.id, write_kind, statement))

    def _classify_binding(self, value: ast.expr) -> tuple[str, str] | None:
        """Tag a local binding when its value shape matters later."""
        if isinstance(value, ast.Lambda):
            return ("lambda", "")
        if isinstance(value, ast.Call):
            candidate = self.context.imports.qualify(value.func)
            if candidate is None:
                return None
            tail = candidate.rsplit(".", 1)[-1]
            if tail in _EXECUTOR_CONSTRUCTORS:
                return ("executor", candidate)
            if tail == "ParallelRunner":
                return ("runner", candidate)
            return ("instance", candidate)
        if isinstance(value, (ast.Name, ast.Attribute)):
            candidate = self.context.imports.qualify(value)
            if candidate is not None:
                return ("alias", candidate)
        return None

    def visit_With(self, node: ast.With) -> None:
        self._handle_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._handle_with(node)

    def _handle_with(self, node: ast.With | ast.AsyncWith) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if isinstance(item.optional_vars, ast.Name):
                function = self._enclosing_function()
                if function is not None:
                    function.local_names.add(item.optional_vars.id)
                binding = self._classify_binding(item.context_expr)
                if binding is not None and self._scope.kind == "function":
                    self._scope.bindings[item.optional_vars.id] = binding
        for statement in node.body:
            self.visit(statement)

    def visit_For(self, node: ast.For) -> None:
        self._bind_loop_target(node.target)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._bind_loop_target(node.target)
        self.generic_visit(node)

    def _bind_loop_target(self, target: ast.expr) -> None:
        function = self._enclosing_function()
        if function is None:
            return
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                function.local_names.add(node.id)

    # -- calls ----------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._maybe_record_submission(node)
        self._maybe_record_mutator(node)
        function = self._enclosing_function()
        if function is not None:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                self.raw_calls.append(
                    _RawCall(function.qualname, "selfattr", func.attr)
                )
            else:
                candidate = self.context.imports.qualify(func)
                if candidate is not None:
                    self.raw_calls.append(
                        _RawCall(function.qualname, "name", candidate)
                    )
        if self._is_executor_construction(node):
            self.module.defines_pool = True
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare function reference (passed as a value, stored in a
        # field default, ...) keeps the target reachable.
        if isinstance(node.ctx, ast.Load):
            function = self._enclosing_function()
            if function is not None and not self._is_local(node.id):
                self.raw_calls.append(
                    _RawCall(function.qualname, "ref", node.id)
                )

    def _is_executor_construction(self, node: ast.Call) -> bool:
        candidate = self.context.imports.qualify(node.func)
        if candidate is None:
            return False
        return candidate.rsplit(".", 1)[-1] in _EXECUTOR_CONSTRUCTORS

    def _maybe_record_mutator(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS
        ):
            return
        base = func.value
        while isinstance(base, (ast.Subscript, ast.Attribute)):
            base = base.value
        if not isinstance(base, ast.Name) or self._is_local(base.id):
            return
        function = self._enclosing_function()
        if function is not None:
            function.writes.append(GlobalWrite(base.id, "mutator", node))

    # -- pool submissions -----------------------------------------------------

    def _maybe_record_submission(self, node: ast.Call) -> None:
        func = node.func
        kind: str | None = None
        if isinstance(func, ast.Attribute):
            if func.attr in _POOL_METHODS and self._receiver_is_poolish(
                func.value
            ):
                kind = func.attr
            elif func.attr in _RUNNER_METHODS and self._receiver_is_runnerish(
                func.value
            ):
                kind = func.attr
        if kind is None:
            return
        argument = node.args[0] if node.args else None
        if argument is None:
            for keyword in node.keywords:
                if keyword.arg in ("run", "fn", "func", "task"):
                    argument = keyword.value
                    break
        spec, unpicklable = self._submission_spec(argument)
        self.raw_submissions.append(
            _RawSubmission(
                node=node,
                module=self.module.name,
                function=self._within() or "<module>",
                kind=kind,
                argument=argument,
                spec=spec,
                unpicklable=unpicklable,
            )
        )

    def _receiver_is_poolish(self, receiver: ast.expr) -> bool:
        if _matches_tokens(receiver, _POOLISH_TOKENS):
            return True
        if isinstance(receiver, ast.Name):
            binding = self._lookup_binding(receiver.id)
            return binding is not None and binding[0] == "executor"
        if isinstance(receiver, ast.Call):
            candidate = self.context.imports.qualify(receiver.func)
            return (
                candidate is not None
                and candidate.rsplit(".", 1)[-1] in _EXECUTOR_CONSTRUCTORS
            )
        return False

    def _receiver_is_runnerish(self, receiver: ast.expr) -> bool:
        if _matches_tokens(receiver, _RUNNERISH_TOKENS):
            return True
        if isinstance(receiver, ast.Name):
            binding = self._lookup_binding(receiver.id)
            return binding is not None and binding[0] == "runner"
        if isinstance(receiver, ast.Call):
            candidate = self.context.imports.qualify(receiver.func)
            return (
                candidate is not None
                and candidate.rsplit(".", 1)[-1] == "ParallelRunner"
            )
        return False

    def _submission_spec(
        self, argument: ast.expr | None
    ) -> tuple[tuple[str, ...], str | None]:
        """(resolution spec, unpicklable phrase) for a submitted callable."""
        if argument is None:
            return ((), None)
        if isinstance(argument, ast.Lambda):
            return ((), "a lambda")
        if isinstance(argument, ast.GeneratorExp):
            return ((), "a generator expression")
        if isinstance(argument, ast.Name):
            binding = self._lookup_binding(argument.id)
            if binding is not None:
                tag, candidate = binding
                if tag == "localfunc":
                    return (
                        ("function", candidate),
                        f"the local function {argument.id!r} "
                        "(defined inside another function)",
                    )
                if tag == "lambda":
                    return ((), "a lambda")
                if tag == "instance":
                    return (("instance", candidate), None)
                if tag == "alias":
                    return (("name", candidate), None)
            candidate = self.context.imports.qualify(argument)
            if candidate is not None:
                return (("name", candidate), None)
            return ((), None)
        if isinstance(argument, (ast.Attribute,)):
            candidate = self.context.imports.qualify(argument)
            if candidate is not None:
                return (("name", candidate), None)
        if isinstance(argument, ast.Call):
            candidate = self.context.imports.qualify(argument.func)
            if candidate is not None:
                return (("instance", candidate), None)
        return ((), None)


# -- the graph ----------------------------------------------------------------


class ProjectGraph:
    """The resolved project: modules, classes, functions and edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.submissions: list[SubmissionSite] = []
        self._raw_calls: list[_RawCall] = []
        self._raw_submissions: list[_RawSubmission] = []

    @classmethod
    def from_contexts(cls, contexts: Iterable[FileContext]) -> "ProjectGraph":
        graph = cls()
        for context in contexts:
            collector = _ModuleCollector(context, graph)
            collector.visit(context.tree)
            graph.modules[context.module] = collector.module
            graph._raw_calls.extend(collector.raw_calls)
            graph._raw_submissions.extend(collector.raw_submissions)
        graph._resolve()
        return graph

    @classmethod
    def from_paths(cls, paths: Iterable[Path]) -> "ProjectGraph":
        """Convenience builder parsing every ``.py`` under ``paths``."""
        from repro.devtools.lint.framework import (
            FileContext,
            iter_python_files,
        )

        contexts = [
            FileContext.parse(path, path.as_posix())
            for path in iter_python_files(paths)
        ]
        return cls.from_contexts(contexts)

    # -- resolution -----------------------------------------------------------

    def _lookup_function(self, module: str, candidate: str) -> str | None:
        if "." not in candidate:
            info = self.modules.get(module)
            if info is not None and candidate in info.functions:
                return info.functions[candidate]
            return None
        if candidate in self.functions:
            return candidate
        return None

    def _lookup_class(self, module: str, candidate: str) -> str | None:
        if "." not in candidate:
            info = self.modules.get(module)
            if info is not None and candidate in info.classes:
                return info.classes[candidate]
            return None
        if candidate in self.classes:
            return candidate
        return None

    def _resolve_method(self, class_qualname: str, attr: str) -> str | None:
        """Resolve ``self.attr(...)`` through the class, its project bases
        and its class-attribute defaults (``run_fn: Callable = run_single``)."""
        seen: set[str] = set()
        queue: deque[str] = deque([class_qualname])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if attr in info.methods:
                return info.methods[attr]
            default = info.class_attr_value(attr)
            if default is not None and isinstance(
                default, (ast.Name, ast.Attribute)
            ):
                candidate = self.modules[info.module].imports.qualify(default)
                if candidate is not None:
                    resolved = self._lookup_function(info.module, candidate)
                    if resolved is not None:
                        return resolved
            for base in info.bases:
                resolved_base = self._lookup_class(info.module, base)
                if resolved_base is not None:
                    queue.append(resolved_base)
        return None

    def _resolve(self) -> None:
        for raw in self._raw_calls:
            caller = self.functions.get(raw.caller)
            if caller is None:
                continue
            if raw.kind == "selfattr":
                if caller.class_qualname is None:
                    continue
                resolved = self._resolve_method(
                    caller.class_qualname, raw.target
                )
                if resolved is not None:
                    caller.calls.append(resolved)
                continue
            function = self._lookup_function(caller.module, raw.target)
            if function is not None:
                if raw.kind == "name":
                    caller.calls.append(function)
                else:
                    caller.references.append(function)
                continue
            klass = self._lookup_class(caller.module, raw.target)
            if klass is not None and raw.kind == "name":
                caller.instantiates.append(klass)
        for raw_submission in self._raw_submissions:
            self.submissions.append(self._resolve_submission(raw_submission))
        self._raw_calls.clear()
        self._raw_submissions.clear()

    def _resolve_submission(self, raw: _RawSubmission) -> SubmissionSite:
        entrypoints: list[str] = []
        if len(raw.spec) == 2:
            tag, candidate = raw.spec[0], raw.spec[1]
            if tag == "function":
                if candidate in self.functions:
                    entrypoints.append(candidate)
            elif tag == "name":
                function = self._lookup_function(raw.module, candidate)
                if function is not None:
                    entrypoints.append(function)
                else:
                    klass = self._lookup_class(raw.module, candidate)
                    if klass is not None:
                        entrypoints.extend(self._callable_entry(klass))
            elif tag == "instance":
                klass = self._lookup_class(raw.module, candidate)
                if klass is not None:
                    entrypoints.extend(self._callable_entry(klass))
        return SubmissionSite(
            node=raw.node,
            module=raw.module,
            function=raw.function,
            kind=raw.kind,
            argument=raw.argument,
            entrypoints=tuple(entrypoints),
            unpicklable=raw.unpicklable,
        )

    def _callable_entry(self, class_qualname: str) -> list[str]:
        info = self.classes.get(class_qualname)
        if info is None:
            return []
        entries = []
        for method in ("__call__", "__init__"):
            if method in info.methods:
                entries.append(info.methods[method])
        return entries[:1] if entries else []

    # -- queries --------------------------------------------------------------

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Function qualnames reachable from ``roots`` via resolved edges."""
        seen: set[str] = set()
        queue: deque[str] = deque(roots)
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            function = self.functions.get(current)
            if function is None:
                continue
            seen.add(current)
            queue.extend(function.calls)
            queue.extend(function.references)
            for klass in function.instantiates:
                info = self.classes.get(klass)
                if info is not None and "__init__" in info.methods:
                    queue.append(info.methods["__init__"])
        return seen

    def worker_entrypoints(self) -> set[str]:
        """Functions that run inside pool workers (resolved submissions)."""
        entrypoints: set[str] = set()
        for submission in self.submissions:
            entrypoints.update(submission.entrypoints)
        return entrypoints

    def pickle_roots(self) -> set[str]:
        """Classes whose instances cross a snapshot/pool pickle boundary.

        Seeds: snapshot-shaped classes (define ``snapshot``/``to_bytes``/
        ``from_bytes``/``__getstate__``/``__reduce__``), algorithm-shaped
        classes (``release`` plus ``process`` or ``run_slot`` — the duck
        type every registered embedder satisfies), and submitted task
        classes. Expanded transitively: ``self.attr = ProjectClass(...)``
        on a root makes ``ProjectClass`` a root too (its state rides the
        same pickle), and so is every project subclass of a root (it
        inherits the methods that made the base one, and adds state to
        the same pickle).
        """
        roots: set[str] = set()
        for qualname, info in self.classes.items():
            method_names = set(info.methods)
            if method_names & _SNAPSHOT_METHODS:
                roots.add(qualname)
            elif "release" in method_names and (
                method_names & {"process", "run_slot"}
            ):
                roots.add(qualname)
        for submission in self.submissions:
            for entrypoint in submission.entrypoints:
                function = self.functions.get(entrypoint)
                if function is not None and function.class_qualname:
                    roots.add(function.class_qualname)
        subclasses: dict[str, list[str]] = {}
        for qualname, info in self.classes.items():
            for base in info.bases:
                resolved = self._lookup_class(info.module, base)
                if resolved is not None:
                    subclasses.setdefault(resolved, []).append(qualname)
        frontier = deque(roots)
        while frontier:
            current = frontier.popleft()
            info = self.classes.get(current)
            if info is None:
                continue
            riders = list(subclasses.get(current, ()))
            for write in info.instance_writes:
                if not isinstance(write.value, ast.Call):
                    continue
                candidate = self.modules[info.module].imports.qualify(
                    write.value.func
                )
                if candidate is None:
                    continue
                held = self._lookup_class(info.module, candidate)
                if held is not None:
                    riders.append(held)
            for rider in riders:
                if rider not in roots:
                    roots.add(rider)
                    frontier.append(rider)
        return roots

    def functions_in(self, module: str) -> Iterator[FunctionInfo]:
        for function in self.functions.values():
            if function.module == module:
                yield function

    def classes_in(self, module: str) -> Iterator[ClassInfo]:
        for info in self.classes.values():
            if info.module == module:
                yield info
