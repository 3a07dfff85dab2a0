"""Property-based tests on the online algorithms' bookkeeping.

For random request sequences, the residual state the algorithm maintains
incrementally must equal capacity minus the independently recomputed loads
of its active allocations — after every prefix of events.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import ROOT_ID
from repro.baselines.quickg import make_quickg
from repro.core.embedding import compute_loads
from repro.core.olive import OliveAlgorithm
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.stats.aggregate import AggregateRequest
from repro.workload.request import Request
from tests.conftest import (
    make_line_substrate,
    make_two_vnf_chain,
    residual_of_link,
    residual_of_node,
)


@st.composite
def request_sequences(draw):
    """Random arrival/departure interleavings over 12 slots."""
    count = draw(st.integers(1, 25))
    requests = []
    for i in range(count):
        requests.append(
            Request(
                arrival=draw(st.integers(0, 11)),
                id=i,
                app_index=0,
                ingress=draw(st.sampled_from(["edge-a", "edge-b"])),
                demand=draw(
                    st.floats(0.5, 30.0, allow_nan=False, allow_infinity=False)
                ),
                duration=draw(st.integers(1, 8)),
            )
        )
    return sorted(requests)


def _plan_for_edge_a() -> Plan:
    aggregate = AggregateRequest(app_index=0, ingress="edge-a", demand=40.0)
    pattern = EmbeddingPattern(
        node_map={ROOT_ID: "edge-a", 1: "transport", 2: "transport"},
        link_paths={(0, 1): (("edge-a", "transport"),), (1, 2): ()},
        weight=1.0,
    )
    return Plan(
        classes={
            aggregate.class_key: ClassPlan(
                aggregate=aggregate, patterns=[pattern], rejected_fraction=0.0
            )
        }
    )


def _check_bookkeeping(algorithm, substrate, apps, requests):
    """Drive the algorithm slot by slot, re-deriving residuals each slot."""
    by_arrival: dict[int, list] = {}
    by_departure: dict[int, list] = {}
    for request in requests:
        by_arrival.setdefault(request.arrival, []).append(request)
        by_departure.setdefault(request.departure, []).append(request)

    for t in range(12 + 9):
        for request in by_departure.get(t, []):
            algorithm.release(request)
        for request in by_arrival.get(t, []):
            algorithm.process(request)

        expected_nodes = {
            v: substrate.node_capacity(v) for v in substrate.nodes
        }
        expected_links = {
            l: substrate.link_capacity(l) for l in substrate.links
        }
        for allocation in algorithm.active.values():
            loads = compute_loads(
                apps[allocation.request.app_index],
                allocation.request.demand,
                allocation.embedding,
                substrate,
                algorithm.efficiency,
            )
            for node, load in loads.nodes.items():
                expected_nodes[node] -= load
            for link, load in loads.links.items():
                expected_links[link] -= load
        for node, expected in expected_nodes.items():
            assert residual_of_node(algorithm.residual, node) == pytest.approx(
                expected, abs=1e-6
            ), (t, node)
            assert expected >= -1e-6, f"capacity violated at {node}"
        for link, expected in expected_links.items():
            assert residual_of_link(algorithm.residual, link) == pytest.approx(
                expected, abs=1e-6
            ), (t, link)
            assert expected >= -1e-6, f"capacity violated at {link}"


@given(request_sequences())
@settings(max_examples=30, deadline=None)
def test_quickg_residual_bookkeeping_is_exact(requests):
    substrate = make_line_substrate(node_capacity=800.0, link_capacity=300.0)
    apps = [make_two_vnf_chain()]
    _check_bookkeeping(make_quickg(substrate, apps), substrate, apps, requests)


@given(request_sequences())
@settings(max_examples=30, deadline=None)
def test_olive_residual_bookkeeping_is_exact(requests):
    substrate = make_line_substrate(node_capacity=800.0, link_capacity=300.0)
    apps = [make_two_vnf_chain()]
    algorithm = OliveAlgorithm(substrate, apps, _plan_for_edge_a())
    _check_bookkeeping(algorithm, substrate, apps, requests)


@given(request_sequences())
@settings(max_examples=20, deadline=None)
def test_olive_plan_residual_never_negative(requests):
    substrate = make_line_substrate(node_capacity=800.0, link_capacity=300.0)
    apps = [make_two_vnf_chain()]
    algorithm = OliveAlgorithm(substrate, apps, _plan_for_edge_a())
    for request in requests:
        algorithm.process(request)
        for value in algorithm.plan_residual.residual.values():
            assert value >= -1e-6
