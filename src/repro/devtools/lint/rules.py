"""The determinism rule catalog (RPR001–RPR006, RPS104).

Each rule codifies one invariant the dynamic test harness (goldens,
fast-vs-reference oracle, jobs=1 ≡ jobs=N, session ≡ batch) relies on but
cannot enforce at the source level. docs/ANALYSIS.md carries the full
catalog with one real-bug example per rule; the short version:

========  ==============================================================
RPR001    iteration over ``set``/``frozenset`` values or unsorted
          filesystem listings — order varies under hash randomization
          (the PR 3 ``split_gpu_datacenters`` bug class)
RPR002    global-state RNG (``random.*`` module functions, legacy
          ``np.random.*``) instead of seeded generators from
          ``repro.utils.rng``
RPR003    wall-clock reads outside the whitelisted
          ``slots_per_second``/``requests_per_second`` runtime metrics
RPR004    direct capacity writes on ``ResidualState`` that bypass
          ``set_node_capacity``/``set_link_capacity`` and skip the
          residual shift (residual ≠ capacity − Σ active loads)
RPR005    ``sum()`` over unordered containers (float reassociation
          breaks bit-identity)
RPR006    mutation of frozen dataclasses / registry internals outside
          their owning module
RPS104    registry mutation at call time (registration outside module
          import scope) — worker processes replay imports, not calls,
          so late registrations exist in some processes and not others
========  ==============================================================

What crosses the worker and checkpoint boundaries is audited on the live
objects instead (``tests/test_event_oracle.py::TestSnapshotPayload``,
``tests/test_parallel_runner.py::TestWorkerModuleState``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.devtools.lint.framework import (
    FileContext,
    Finding,
    LintError,
    LintRule,
    ScopedVisitor,
)

__all__ = [
    "ALL_RULES",
    "RuleSetIteration",
    "RuleGlobalRng",
    "RuleWallClock",
    "RuleCapacityWrite",
    "RuleUnorderedSum",
    "RuleFrozenMutation",
    "RuleCallTimeRegistration",
    "default_rules",
    "select_rules",
]


class _CollectingVisitor(ScopedVisitor):
    """ScopedVisitor that accumulates findings on behalf of one rule."""

    def __init__(self, rule: LintRule, context: FileContext) -> None:
        super().__init__(context)
        self.rule = rule
        self.findings: list[Finding] = []

    def emit(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            self.rule.finding(self.context, node, message, self.qualname)
        )


def _run_visitor(
    rule: LintRule, context: FileContext, visitor_cls: type[_CollectingVisitor]
) -> Iterator[Finding]:
    visitor = visitor_cls(rule, context)
    visitor.visit(context.tree)
    yield from visitor.findings


# -- RPR001 -------------------------------------------------------------------

#: Order-independent consumers: iterating inside these is harmless.
_ORDER_FREE_CALLS = {"sorted", "len", "min", "max", "any", "all", "sum", "frozenset", "set"}
#: Order-*dependent* consumers that materialize the iteration order.
_ORDER_CAPTURING_CALLS = {"list", "tuple", "enumerate", "iter", "next", "map", "filter", "zip"}


class _SetIterationVisitor(_CollectingVisitor):
    def __init__(self, rule: LintRule, context: FileContext) -> None:
        super().__init__(rule, context)
        # Generator expressions consumed by sum() are RPR005's findings;
        # claiming them here avoids double-reporting one hazard.
        self._claimed_by_sum: set[ast.expr] = set()

    def _flag(self, node: ast.expr, where: str) -> None:
        kind = self.unordered_kind(node)
        if kind == "set":
            self.emit(
                node,
                f"iteration over a set/frozenset in {where} — order varies "
                "under hash randomization; sort it (e.g. sorted(...)) or "
                "iterate the ordered source collection",
            )
        elif kind == "fs":
            self.emit(
                node,
                f"unsorted filesystem listing iterated in {where} — "
                "os.listdir/glob order is platform- and inode-dependent; "
                "wrap it in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag(node.iter, "a for loop")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._flag(node.iter, "a for loop")
        self.generic_visit(node)

    def _visit_comp(
        self,
        node: ast.ListComp | ast.DictComp | ast.GeneratorExp,
        kind: str,
    ) -> None:
        for generator in node.generators:
            self._flag(generator.iter, kind)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, "a list comprehension")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set comprehension's *result* is unordered anyway; iterating a
        # set to build another set is not an ordering hazard.
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comp(node, "a dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        if node in self._claimed_by_sum:
            self.generic_visit(node)
            return
        self._visit_comp(node, "a generator expression")

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.context.imports.qualify(node.func)
        if qual in _ORDER_CAPTURING_CALLS:
            for arg in node.args:
                self._flag(arg, f"{qual}()")
        elif qual == "sum" and node.args:
            if isinstance(node.args[0], ast.GeneratorExp):
                self._claimed_by_sum.add(node.args[0])
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("join", "extend", "update")
            and node.args
        ):
            self._flag(node.args[0], f".{node.func.attr}()")
        self.generic_visit(node)


class RuleSetIteration(LintRule):
    rule_id = "RPR001"
    summary = (
        "iteration over set/frozenset values or unsorted filesystem "
        "listings (hash-randomized / platform-dependent order)"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from _run_visitor(self, context, _SetIterationVisitor)


# -- RPR002 -------------------------------------------------------------------

#: Legacy numpy global-state RNG entry points (RandomState singleton).
_NUMPY_LEGACY = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "gumbel", "hypergeometric",
    "laplace", "logistic", "lognormal", "multinomial",
    "multivariate_normal", "negative_binomial", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf", "get_state", "set_state",
}
#: Explicit-generator constructors — these are the *sanctioned* API.
_NUMPY_SANCTIONED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
}


class _GlobalRngVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        qual = self.context.imports.qualify(node.func)
        if qual is not None:
            if qual.startswith("random."):
                self.emit(
                    node,
                    f"{qual}() draws from the process-global random module "
                    "state — thread a seeded numpy Generator from "
                    "repro.utils.rng (make_rng/child_rng) instead",
                )
            elif qual.startswith("numpy.random."):
                tail = qual.rsplit(".", 1)[1]
                if tail in _NUMPY_LEGACY and tail not in _NUMPY_SANCTIONED:
                    self.emit(
                        node,
                        f"{qual}() uses numpy's legacy global RandomState — "
                        "results depend on import-time seeding and call "
                        "interleaving; use a Generator from "
                        "repro.utils.rng instead",
                    )
        self.generic_visit(node)


class RuleGlobalRng(LintRule):
    rule_id = "RPR002"
    summary = (
        "global-state RNG (random.* module functions, legacy np.random.*) "
        "instead of seeded generators from repro.utils.rng"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_module("repro/utils/rng.py"):
            return  # the owning module: defines the sanctioned plumbing
        yield from _run_visitor(self, context, _GlobalRngVisitor)


# -- RPR003 -------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}
#: Enclosing functions whose whole purpose is runtime telemetry; their
#: values reach results only through the slots_per_second /
#: requests_per_second metrics, which goldens treat as key-only.
_WALL_CLOCK_ALLOWED_CONTEXTS = {"slots_per_second", "requests_per_second"}


class _WallClockVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        qual = self.context.imports.qualify(node.func)
        if qual in _WALL_CLOCK:
            tail = self.qualname.rsplit(".", 1)[-1]
            if tail not in _WALL_CLOCK_ALLOWED_CONTEXTS:
                self.emit(
                    node,
                    f"{qual}() reads the wall clock — nondeterministic "
                    "values must not flow into results; only the "
                    "slots_per_second/requests_per_second runtime metrics "
                    "(key-only in goldens) are whitelisted",
                )
        self.generic_visit(node)


class RuleWallClock(LintRule):
    rule_id = "RPR003"
    summary = (
        "wall-clock reads outside the whitelisted "
        "slots_per_second/requests_per_second runtime metrics"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from _run_visitor(self, context, _WallClockVisitor)


# -- RPR004 -------------------------------------------------------------------

_CAPACITY_ATTRS = {"node_capacity", "link_capacity"}
_LIST_MUTATORS = {
    "append", "extend", "insert", "clear", "pop", "remove", "sort", "reverse",
}


class _CapacityWriteVisitor(_CollectingVisitor):
    def _capacity_attr(self, node: ast.expr) -> str | None:
        """The capacity attribute a write target reaches, if any."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in _CAPACITY_ATTRS:
            # `self.index.node_capacity` is the substrate's immutable
            # nominal array, not the ResidualState effective-capacity
            # list; writes to it are a different bug, not this rule.
            return node.attr
        return None

    def _flag(self, node: ast.AST, attr: str) -> None:
        setter = "set_node_capacity" if attr == "node_capacity" else "set_link_capacity"
        self.emit(
            node,
            f"direct write to ResidualState.{attr} bypasses {setter}() — "
            "the residual shift is skipped, so routing and fits() keep "
            "reading residuals computed against the stale capacity",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self._capacity_attr(target)
            if attr is not None:
                self._flag(node, attr)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._capacity_attr(node.target)
        if attr is not None:
            self._flag(node, attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LIST_MUTATORS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in _CAPACITY_ATTRS
        ):
            self._flag(node, func.value.attr)
        self.generic_visit(node)


class RuleCapacityWrite(LintRule):
    rule_id = "RPR004"
    summary = (
        "direct capacity writes on ResidualState bypassing "
        "set_node_capacity/set_link_capacity (skips the residual shift)"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_module("repro/core/residual.py"):
            return  # the owning module implements the setters themselves
        yield from _run_visitor(self, context, _CapacityWriteVisitor)


# -- RPR005 -------------------------------------------------------------------


class _UnorderedSumVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        qual = self.context.imports.qualify(node.func)
        if qual == "sum" and node.args:
            arg = node.args[0]
            if self.unordered_kind(arg) is not None:
                self.emit(
                    node,
                    "sum() over an unordered container — float addition is "
                    "not associative, so hash-order variation changes the "
                    "result bits; sum a sorted(...) or ordered source, or "
                    "use math.fsum for order-independent exact summation",
                )
            elif isinstance(arg, ast.GeneratorExp) and any(
                self.unordered_kind(generator.iter) is not None
                for generator in arg.generators
            ):
                self.emit(
                    node,
                    "sum() over a generator draining an unordered container "
                    "— float reassociation under hash-order variation "
                    "breaks bit-identity; iterate a sorted(...) source",
                )
        self.generic_visit(node)


class RuleUnorderedSum(LintRule):
    rule_id = "RPR005"
    summary = (
        "sum()/accumulation over unordered containers "
        "(float reassociation breaks bit-identity)"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        yield from _run_visitor(self, context, _UnorderedSumVisitor)


# -- RPR006 -------------------------------------------------------------------


class _FrozenMutationVisitor(_CollectingVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        qual = self.context.imports.qualify(node.func)
        if qual == "object.__setattr__" and node.args:
            target = node.args[0]
            if not (isinstance(target, ast.Name) and target.id == "self"):
                self.emit(
                    node,
                    "object.__setattr__ on a foreign instance defeats a "
                    "frozen dataclass's immutability — frozen events and "
                    "records are shared across sessions/processes and must "
                    "only be rebuilt via dataclasses.replace()",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "_entries":
            self.emit(
                node,
                "access to Registry._entries outside repro.registry — the "
                "entry table's insertion order and duplicate policy are "
                "the registry's invariants; use register()/unregister()/"
                "get()/names()",
            )
        self.generic_visit(node)


class RuleFrozenMutation(LintRule):
    rule_id = "RPR006"
    summary = (
        "mutation of frozen event dataclasses or registry internals "
        "outside their owning module"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.in_module("repro/registry.py"):
            return  # the owning module manages its own entry table
        yield from _run_visitor(self, context, _FrozenMutationVisitor)


# -- RPS104 -------------------------------------------------------------------


class _RegistryMutationVisitor(_CollectingVisitor):
    """Flags registry registration/unregistration inside function bodies.

    Decorators on module- or class-level defs run at import time and are
    the sanctioned registration path; the visitor therefore inspects a
    def's decorators *before* entering its scope, so only genuinely
    call-time mutation (inside a function body) is flagged.
    """

    def __init__(self, rule: LintRule, context: FileContext) -> None:
        super().__init__(rule, context)
        self._depth = 0

    def _visit_scope(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    ) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        is_function = not isinstance(node, ast.ClassDef)
        self._enter(node.name)
        self._depth += is_function
        try:
            for statement in node.body:
                self.visit(statement)
        finally:
            self._depth -= is_function
            self._leave()

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth > 0:
            verb = self._registry_mutation(node)
            if verb is not None:
                self.emit(
                    node,
                    f"registry {verb} at call time — worker processes "
                    "and restored sessions replay module imports, not "
                    "call sequences, so a registration made inside a "
                    "function exists in some processes and not "
                    "others; register at module import scope (the "
                    "decorator form), or unregister in the same "
                    "test-local finally block that registered",
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
        yield from _run_visitor(self, context, _RegistryMutationVisitor)


ALL_RULES: tuple[type[LintRule], ...] = (
    RuleSetIteration,
    RuleGlobalRng,
    RuleWallClock,
    RuleCapacityWrite,
    RuleUnorderedSum,
    RuleFrozenMutation,
    RuleCallTimeRegistration,
)


def default_rules() -> list[LintRule]:
    return [rule() for rule in ALL_RULES]


def select_rules(ids: Iterable[str]) -> list[LintRule]:
    """Instantiate the rules named by ``ids``.

    A token is either an exact rule id (``RPR001``) or a family prefix
    selecting every rule that starts with it (``RPR`` → RPR001–RPR006,
    ``RPS`` → RPS104).
    """
    wanted = {rule_id.strip().upper() for rule_id in ids if rule_id.strip()}
    known = {rule.rule_id: rule for rule in ALL_RULES}
    selected: set[str] = set()
    unknown: list[str] = []
    for token in sorted(wanted):
        if token in known:
            selected.add(token)
            continue
        family = sorted(
            rule_id for rule_id in known if rule_id.startswith(token)
        )
        if family:
            selected.update(family)
        else:
            unknown.append(token)
    if unknown:
        raise LintError(
            f"unknown rule id(s) {sorted(unknown)}; known: {sorted(known)} "
            "(family prefixes like RPR or RPS select the whole family)"
        )
    return [known[rule_id]() for rule_id in sorted(selected)]
