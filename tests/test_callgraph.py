"""The project call graph behind the RPS parallel-safety rules.

Two layers:

* unit tests over synthetic multi-module trees (written under a
  ``src/`` root so ``_module_name`` produces dotted names) exercising
  the resolution machinery: cross-module calls through the import
  table, ``self.method`` dispatch, class-attribute callable defaults,
  pool-submission entrypoints, reachability and pickle-root expansion;
* regression anchors over the shipped ``src`` tree — the facts the RPS
  rules depend on (the ``_PointTask.__call__`` worker entrypoint, the
  session pickle root, the pool-defining runner module) must stay true
  as the codebase grows.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.callgraph import ProjectGraph
from repro.devtools.lint import run_lint, select_rules

REPO_ROOT = Path(__file__).resolve().parents[1]


def build(tmp_path: Path, files: dict[str, str]) -> ProjectGraph:
    """Materialize ``files`` under ``tmp_path/src`` and build the graph."""
    root = tmp_path / "src"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return ProjectGraph.from_paths([root])


# -- resolution ---------------------------------------------------------------


class TestResolution:
    def test_cross_module_call_through_import(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/engine.py": "def run(x):\n    return x\n",
            "pkg/driver.py": (
                "from pkg.engine import run\n"
                "def caller(x):\n    return run(x)\n"
            ),
        })
        assert "pkg.engine.run" in graph.functions["pkg.driver.caller"].calls

    def test_self_method_dispatch(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/mod.py": (
                "class Engine:\n"
                "    def helper(self):\n        return 1\n"
                "    def go(self):\n        return self.helper()\n"
            ),
        })
        assert "pkg.mod.Engine.helper" in (
            graph.functions["pkg.mod.Engine.go"].calls
        )

    def test_class_attr_callable_default(self, tmp_path):
        """The ``_PointTask.run_fn`` shape: a field defaulting to a function."""
        graph = build(tmp_path, {
            "pkg/mod.py": (
                "def run_single(x):\n    return x\n"
                "class Task:\n"
                "    run_fn = run_single\n"
                "    def go(self, x):\n        return self.run_fn(x)\n"
            ),
        })
        assert "pkg.mod.run_single" in (
            graph.functions["pkg.mod.Task.go"].calls
        )

    def test_instantiation_edge_reaches_init(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/mod.py": (
                "class Engine:\n"
                "    def __init__(self):\n        self.state = {}\n"
                "def make():\n    return Engine()\n"
            ),
        })
        assert "pkg.mod.Engine" in graph.functions["pkg.mod.make"].instantiates
        assert "pkg.mod.Engine.__init__" in graph.reachable(["pkg.mod.make"])


# -- pool submissions ---------------------------------------------------------


POOL_MODULE = (
    "from concurrent.futures import ProcessPoolExecutor\n"
    "def run_point(seed):\n"
    "    return prepare(seed)\n"
    "def prepare(seed):\n"
    "    return {'metric': float(seed)}\n"
    "def fan_out(seeds):\n"
    "    with ProcessPoolExecutor() as pool:\n"
    "        return list(pool.map(run_point, seeds))\n"
)


class TestSubmissions:
    def test_map_resolves_module_function_entrypoint(self, tmp_path):
        graph = build(tmp_path, {"pkg/pool.py": POOL_MODULE})
        (site,) = graph.submissions
        assert site.kind == "map"
        assert site.entrypoints == ("pkg.pool.run_point",)
        assert site.unpicklable is None

    def test_lambda_submission_is_unpicklable(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/pool.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "def fan_out(seeds):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(lambda s: s, seeds))\n"
            ),
        })
        (site,) = graph.submissions
        assert site.entrypoints == ()
        assert site.unpicklable is not None and "lambda" in site.unpicklable

    def test_submitted_task_instance_resolves_call_method(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/task.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "class PointTask:\n"
                "    def __call__(self, seed):\n        return seed\n"
                "def fan_out(seeds):\n"
                "    task = PointTask()\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return [pool.submit(task, s) for s in seeds]\n"
            ),
        })
        assert graph.worker_entrypoints() == {"pkg.task.PointTask.__call__"}

    def test_worker_reachability_spans_helpers(self, tmp_path):
        graph = build(tmp_path, {"pkg/pool.py": POOL_MODULE})
        reached = graph.reachable(graph.worker_entrypoints())
        assert "pkg.pool.prepare" in reached
        assert "pkg.pool.fan_out" not in reached


# -- module state and pickle roots --------------------------------------------


class TestModuleState:
    def test_mutable_globals_and_pool_definition(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/runner.py": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "_pools = {}\n"
                "SLOTS = 16\n"
                "def _shared_pool(workers):\n"
                "    return ProcessPoolExecutor(max_workers=workers)\n"
            ),
        })
        info = graph.modules["pkg.runner"]
        assert info.defines_pool
        assert "_pools" in info.mutable_globals
        assert "SLOTS" not in info.mutable_globals

    def test_global_statement_marks_name_mutable(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/mod.py": (
                "_default = None\n"
                "def set_default(value):\n"
                "    global _default\n"
                "    _default = value\n"
            ),
        })
        assert "_default" in graph.modules["pkg.mod"].mutable_globals

    def test_pickle_roots_expand_through_held_instances(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/session.py": (
                "class Engine:\n"
                "    def __init__(self):\n        self.state = {}\n"
                "class Session:\n"
                "    def __init__(self):\n"
                "        self.engine = Engine()\n"
                "    def snapshot(self):\n        return self\n"
            ),
        })
        roots = graph.pickle_roots()
        assert "pkg.session.Session" in roots, "snapshot() marks the root"
        assert "pkg.session.Engine" in roots, "held instances ride the pickle"

    def test_algorithm_duck_type_is_a_root(self, tmp_path):
        graph = build(tmp_path, {
            "pkg/alg.py": (
                "class Embedder:\n"
                "    def process(self, request):\n        return request\n"
                "    def release(self, request):\n        return None\n"
                "class Helper:\n"
                "    def process(self, request):\n        return request\n"
            ),
        })
        roots = graph.pickle_roots()
        assert "pkg.alg.Embedder" in roots
        assert "pkg.alg.Helper" not in roots, "process alone is not the duck"

    def test_project_subclass_of_a_root_is_a_root(self, tmp_path):
        """A subclass that overrides nothing has no method of its own
        to duck-type on; it is still pickled, with the state it adds."""
        graph = build(tmp_path, {
            "pkg/alg.py": (
                "class Embedder:\n"
                "    def process(self, request):\n        return request\n"
                "    def release(self, request):\n        return None\n"
            ),
            "pkg/ext.py": (
                "from pkg.alg import Embedder\n"
                "class Cache:\n"
                "    def __init__(self):\n        self.rows = {}\n"
                "class Windowed(Embedder):\n"
                "    def __init__(self):\n        self.cache = Cache()\n"
                "class Nested(Windowed):\n"
                "    def on_slot(self, t):\n        return None\n"
                "class Unrelated:\n"
                "    def on_slot(self, t):\n        return None\n"
            ),
        })
        roots = graph.pickle_roots()
        assert {"pkg.ext.Windowed", "pkg.ext.Nested"} <= roots
        assert "pkg.ext.Cache" in roots, "a subclass's held state rides too"
        assert "pkg.ext.Unrelated" not in roots


# -- regression anchors over the shipped tree ---------------------------------


@pytest.fixture(scope="module")
def src_graph() -> ProjectGraph:
    return ProjectGraph.from_paths([REPO_ROOT / "src"])


class TestShippedTree:
    def test_point_task_is_the_worker_entrypoint(self, src_graph):
        assert "repro.api._PointTask.__call__" in (
            src_graph.worker_entrypoints()
        )

    def test_simulation_session_is_a_pickle_root(self, src_graph):
        assert "repro.sim.session.SimulationSession" in (
            src_graph.pickle_roots()
        )

    def test_every_shipped_algorithm_is_a_pickle_root(self, src_graph):
        """OLIVE-W / OLIVE-RE override no ledger method and FULLG /
        NODERANK define only the embed step: they are roots because
        their base is, and RPS101 / RPS103 find nothing on them — not
        even something suppressed."""
        assert {
            "repro.core.ledger.LedgerAlgorithm",
            "repro.core.olive.OliveAlgorithm",
            "repro.plan.windowed.WindowedOliveAlgorithm",
            "repro.plan.replanning.ReplanningOliveAlgorithm",
            "repro.baselines.fullg.FullGAlgorithm",
            "repro.baselines.noderank.NodeRankAlgorithm",
            "repro.baselines.slotoff.SlotOffAlgorithm",
        } <= src_graph.pickle_roots()
        report = run_lint(
            [REPO_ROOT / "src"],
            rules=select_rules(["RPS101", "RPS103"]),
            root=REPO_ROOT,
        )
        assert report.findings == []

    def test_runner_is_the_pool_defining_module(self, src_graph):
        runner = src_graph.modules["repro.sim.runner"]
        assert runner.defines_pool
        assert {"_pools", "_default_runner"} <= runner.mutable_globals

    def test_graph_covers_the_tree(self, src_graph):
        assert len(src_graph.modules) > 60
        assert len(src_graph.functions) > 400
        assert len(src_graph.classes) > 100
