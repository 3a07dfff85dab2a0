"""Shared fixtures: hand-built tiny substrates and applications.

The tiny fixtures are deliberately small enough that expected behaviour can
be computed by hand in the tests; the session-scoped scenario fixture gives
integration tests a realistic (but fast) end-to-end pipeline without
rebuilding the plan per test.
"""

from __future__ import annotations

import difflib
import json
import os
import sys
from collections import deque
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.apps.application import ROOT_ID, VNF, Application, VirtualLink, VNFKind
from repro.experiments import cache as result_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.sim.runner import ParallelRunner, set_default_runner
from repro.substrate.network import LinkAttrs, NodeAttrs, SubstrateNetwork
from repro.substrate.tiers import Tier
from repro.utils.paths import CACHE_ROOT_ENV, DATA_ROOT_ENV
from repro.utils.rng import make_rng


# -- hypothesis hygiene --------------------------------------------------------
#
# One registered profile per use case, loaded deterministically so local
# runs and CI shrink/replay identically:
#
# * ``ci`` (default): derandomized — the same examples every run, no
#   wall-clock deadline (scenario-building examples legitimately take
#   hundreds of ms on a busy CI box, and flaky deadline failures are
#   worse than none).
# * ``dev``: random exploration for bug hunting; select it with
#   ``HYPOTHESIS_PROFILE=dev pytest ...``.
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None, max_examples=50)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from the current run "
        "instead of comparing against them",
    )


#: Committed figure-driver snapshots (see tests/test_golden_figures.py).
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def golden(request):
    """Compare ``data`` against the committed snapshot ``name``.

    Under ``--update-golden`` the snapshot is rewritten instead. Failures
    print a unified diff of the canonical JSON rendering, so a divergence
    reads like a code review, not a wall of repr.
    """
    update = request.config.getoption("--update-golden")

    def check(name: str, data) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        actual = json.dumps(data, indent=2, sort_keys=True) + "\n"
        if update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(actual)
            return
        if not path.exists():
            pytest.fail(
                f"no golden snapshot {path.name}; create it with "
                f"`pytest {request.node.nodeid} --update-golden` and commit "
                "the file"
            )
        expected = path.read_text()
        if actual != expected:
            diff = "\n".join(
                difflib.unified_diff(
                    expected.splitlines(),
                    actual.splitlines(),
                    fromfile=f"golden/{path.name} (committed)",
                    tofile=f"golden/{path.name} (this run)",
                    lineterm="",
                )
            )
            pytest.fail(
                f"golden snapshot {path.name} diverged — if the change is "
                "intended, re-run with --update-golden and commit:\n" + diff
            )

    return check


@pytest.fixture(autouse=True)
def _isolated_runner_and_cache(tmp_path, monkeypatch):
    """Keep the process-wide runner/cache state out of the home directory.

    CLI invocations configure a global runner and result cache; tests must
    neither write to ``~/.cache`` nor leak an enabled cache (or a parallel
    runner) into the next test.
    """
    monkeypatch.setenv(DATA_ROOT_ENV, str(tmp_path / "repro-data"))
    monkeypatch.setenv(CACHE_ROOT_ENV, str(tmp_path / "repro-cache"))
    yield
    set_default_runner(ParallelRunner(jobs=1))
    result_cache.configure_cache(enabled=False)


#: What the boundary audits treat as writable in place: as a class
#: attribute it is shared by every instance and left out of a pickle; at
#: module level every worker process owns a private copy.
MUTABLE_CONTAINERS = (list, dict, set, bytearray, deque, np.ndarray)


def repro_module_bindings() -> dict[str, dict[str, object]]:
    """``{module: {name: value}}`` — every module-level binding of every
    loaded ``repro.*`` module (dunders and submodule attributes aside)."""
    return {
        module_name: {
            name: value
            for name, value in vars(module).items()
            if not name.startswith("__") and not isinstance(value, ModuleType)
        }
        for module_name, module in sorted(sys.modules.items())
        if module_name.split(".")[0] == "repro"
    }


def assert_preemptible_is_derived(algorithm) -> None:
    """The ledger's ``preemptible`` index is exactly the non-planned rows
    of ``active`` — the same objects, in ``active``'s order."""
    expected = [
        (i, a) for i, a in algorithm.active.items() if not a.planned
    ]
    actual = list(algorithm.preemptible.items())
    assert [i for i, _ in actual] == [i for i, _ in expected]
    assert all(a is b for (_, a), (_, b) in zip(actual, expected))


def make_line_substrate(
    node_capacity: float = 1000.0,
    link_capacity: float = 500.0,
) -> SubstrateNetwork:
    """A 4-node line: edge-a — transport — core — edge-b.

    Costs: edge 50, transport 10, core 1 per CU; links cost 1 per CU.
    """
    nodes = {
        "edge-a": NodeAttrs(tier=Tier.EDGE, capacity=node_capacity, cost=50.0),
        "transport": NodeAttrs(
            tier=Tier.TRANSPORT, capacity=node_capacity * 3, cost=10.0
        ),
        "core": NodeAttrs(
            tier=Tier.CORE, capacity=node_capacity * 9, cost=1.0
        ),
        "edge-b": NodeAttrs(tier=Tier.EDGE, capacity=node_capacity, cost=50.0),
    }
    links = {
        ("edge-a", "transport"): LinkAttrs(
            tier=Tier.EDGE, capacity=link_capacity, cost=1.0
        ),
        ("core", "transport"): LinkAttrs(
            tier=Tier.TRANSPORT, capacity=link_capacity * 3, cost=1.0
        ),
        ("core", "edge-b"): LinkAttrs(
            tier=Tier.EDGE, capacity=link_capacity, cost=1.0
        ),
    }
    return SubstrateNetwork(name="line4", nodes=nodes, links=links)


def make_two_vnf_chain(
    node_size: float = 10.0, link_size: float = 5.0
) -> Application:
    """θ → v1 → v2 with fixed sizes (node β = 10, link β = 5)."""
    return Application(
        name="chain-fixed",
        vnfs=(
            VNF(ROOT_ID, 0.0, VNFKind.ROOT),
            VNF(1, node_size),
            VNF(2, node_size),
        ),
        links=(
            VirtualLink(ROOT_ID, 1, link_size),
            VirtualLink(1, 2, link_size),
        ),
    )


@pytest.fixture
def line_substrate() -> SubstrateNetwork:
    return make_line_substrate()


@pytest.fixture
def chain_app() -> Application:
    return make_two_vnf_chain()


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture(scope="session")
def test_config() -> ExperimentConfig:
    return ExperimentConfig.test()


@pytest.fixture(scope="session")
def test_scenario(test_config):
    """A shared small end-to-end scenario (CittaStudi, 120+24 slots)."""
    return build_scenario(test_config, seed=1)
