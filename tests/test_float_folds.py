"""Float sums that feed decisions fold left to right on every interpreter.

Built-in ``sum()`` of floats compensates from CPython 3.12 on: ten 0.1s
add up to 1.0 there and to 0.9999999999999999 on 3.10/3.11, where the
goldens were recorded. Each quantity below feeds a plan, an LP
coefficient, a greedy route load or an admission check, so each is
pinned to the left fold on inexact terms.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from repro.apps.application import ROOT_ID, VNF, Application, VirtualLink, VNFKind
from repro.apps.efficiency import UniformEfficiency
from repro.core.profile import AppProfile
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.plan.rejection import rejection_factor
from repro.serve.service import EmbedderService
from repro.stats.aggregate import AggregateRequest
from repro.utils.fold import left_sum
from tests.conftest import make_line_substrate

TENTHS = [0.1] * 10
#: ``TENTHS`` folded left to right; a compensated sum gives 1.0.
FOLDED = 0.9999999999999999


def test_left_sum_is_not_compensated():
    assert math.fsum(TENTHS) == 1.0
    assert left_sum(TENTHS) == FOLDED
    assert left_sum([]) == 0.0


def _star_app() -> Application:
    """θ with ten children, every VNF and virtual link sized 0.1."""
    return Application(
        name="star-tenths",
        vnfs=(
            VNF(ROOT_ID, 0.0, VNFKind.ROOT),
            *(VNF(i, 0.1) for i in range(1, 11)),
        ),
        links=tuple(VirtualLink(ROOT_ID, i, 0.1) for i in range(1, 11)),
    )


def test_application_sizes_and_psi():
    app = _star_app()
    assert app.total_node_size() == FOLDED
    assert app.total_link_size() == FOLDED
    assert app.root_adjacent_link_size() == FOLDED
    substrate = make_line_substrate()
    assert rejection_factor(app, substrate, path_hops=1) == (
        FOLDED * substrate.max_node_cost() + FOLDED * substrate.max_link_cost()
    )


def test_greedy_route_load_factor():
    profile = AppProfile(_star_app(), make_line_substrate(), UniformEfficiency())
    assert profile.root_link_size_sum == FOLDED


def test_plan_fractions():
    patterns = [
        EmbeddingPattern(node_map={ROOT_ID: "edge-a"}, link_paths={}, weight=0.1)
        for _ in range(10)
    ]
    plan = Plan(classes={
        (0, "edge-a"): ClassPlan(
            aggregate=AggregateRequest(0, "edge-a", 1.0),
            patterns=patterns,
            rejected_fraction=0.0,
        ),
    })
    assert plan.classes[(0, "edge-a")].allocated_fraction == FOLDED
    assert plan.total_guaranteed_demand() == FOLDED


def test_service_utilization():
    residual = SimpleNamespace(node_capacity=TENTHS, node_residual=[0.5])
    service = SimpleNamespace(
        session=SimpleNamespace(algorithm=SimpleNamespace(residual=residual))
    )
    assert EmbedderService.utilization(service) == 1.0 - 0.5 / FOLDED != 0.5
