"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import ROOT_ID, VNF, Application, VirtualLink, VNFKind
from repro.core.embedding import ElementLoads
from repro.core.residual import ResidualState
from repro.errors import InfeasibleError, LPError
from repro.lp.model import ConstraintSense, LinearProgram
from repro.lp.solver import solve_lp
from repro.plan.decompose import decompose_class
from repro.stats.aggregate import class_demand_series
from repro.stats.bootstrap import bootstrap_percentile
from repro.utils.rng import make_rng
from repro.workload.popularity import zipf_weights
from repro.workload.request import Request, RequestColumns
from tests.conftest import make_line_substrate, residual_of_node


# -- LP layer -----------------------------------------------------------------


@st.composite
def small_lps(draw):
    """Random bounded LPs with ≤ 4 variables and ≤ 4 constraints."""
    num_vars = draw(st.integers(1, 4))
    objective = [
        draw(st.floats(-5, 5, allow_nan=False)) for _ in range(num_vars)
    ]
    upper = [draw(st.floats(0.5, 10, allow_nan=False)) for _ in range(num_vars)]
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {
            v: draw(st.floats(-3, 3, allow_nan=False))
            for v in range(num_vars)
        }
        sense = draw(st.sampled_from(list(ConstraintSense)))
        rhs = draw(st.floats(-10, 10, allow_nan=False))
        rows.append((coeffs, sense, rhs))
    return objective, upper, rows


@given(small_lps())
@settings(max_examples=60, deadline=None)
def test_lp_solutions_are_feasible(problem):
    """Whatever HiGHS returns must satisfy every constraint and bound."""
    objective, upper, rows = problem
    lp = LinearProgram()
    variables = [
        lp.add_variable(upper=upper[i], objective=objective[i])
        for i in range(len(objective))
    ]
    for coeffs, sense, rhs in rows:
        lp.add_constraint(
            {variables[v]: c for v, c in coeffs.items()}, sense, rhs
        )
    try:
        solution = solve_lp(lp)
    except (InfeasibleError, LPError):
        return  # infeasibility is a legitimate outcome
    tol = 1e-6
    for i, variable in enumerate(variables):
        value = solution.values[variable]
        assert -tol <= value <= upper[i] + tol
    for coeffs, sense, rhs in rows:
        lhs = sum(c * solution.values[variables[v]] for v, c in coeffs.items())
        if sense is ConstraintSense.LE:
            assert lhs <= rhs + 1e-5
        elif sense is ConstraintSense.GE:
            assert lhs >= rhs - 1e-5
        else:
            assert lhs == pytest.approx(rhs, abs=1e-5)


# -- flow decomposition: decompose(compose(patterns)) == patterns --------------


@st.composite
def chain_patterns(draw):
    """Random weighted embeddings of a 2-VNF chain on the line substrate."""
    nodes = ["edge-a", "transport", "core", "edge-b"]
    # Simple path structure of the line substrate.
    paths = {
        ("edge-a", "edge-a"): [],
        ("edge-a", "transport"): [("edge-a", "transport")],
        ("edge-a", "core"): [("edge-a", "transport"), ("core", "transport")],
        ("edge-a", "edge-b"): [
            ("edge-a", "transport"),
            ("core", "transport"),
            ("core", "edge-b"),
        ],
    }
    count = draw(st.integers(1, 3))
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(0.05, 1.0, allow_nan=False),
            min_size=count,
            max_size=count,
        )
    )
    total = sum(weights)
    if total > 1.0:
        weights = [w / total for w in weights]
    return picks, weights, paths


def _line_path(paths, a, b):
    """Directed path between any two line-substrate nodes, in walk order."""
    if a == b:
        return []
    order = {"edge-a": 0, "transport": 1, "core": 2, "edge-b": 3}
    lo, hi = sorted((a, b), key=order.get)
    full = paths[("edge-a", "edge-b")]
    segment = full[order[lo]:order[hi]]
    return segment if a == lo else list(reversed(segment))


@given(chain_patterns())
@settings(max_examples=60, deadline=None)
def test_decomposition_recovers_composed_flow(case):
    """Composing random patterns into masses/flows then decomposing must
    recover the total allocated fraction with consistent patterns."""
    picks, weights, paths = case
    app = Application(
        name="chain",
        vnfs=(VNF(ROOT_ID, 0.0, VNFKind.ROOT), VNF(1, 1.0), VNF(2, 1.0)),
        links=(VirtualLink(ROOT_ID, 1, 1.0), VirtualLink(1, 2, 1.0)),
    )
    node_mass = {ROOT_ID: {"edge-a": sum(weights)}, 1: {}, 2: {}}
    arc_flow = {(0, 1): {}, (1, 2): {}}
    for (host1, host2), weight in zip(picks, weights):
        node_mass[1][host1] = node_mass[1].get(host1, 0.0) + weight
        node_mass[2][host2] = node_mass[2].get(host2, 0.0) + weight
        for key, (a, b) in (((0, 1), ("edge-a", host1)), ((1, 2), (host1, host2))):
            node = a
            for link in _line_path(paths, a, b):
                u, v = link
                arc = (node, v) if node == u else (node, u)
                arc_flow[key][arc] = arc_flow[key].get(arc, 0.0) + weight
                node = arc[1]

    patterns, lost = decompose_class(
        app, "edge-a", node_mass, arc_flow, tolerance=1e-9
    )
    assert lost == pytest.approx(0.0, abs=1e-7)
    assert sum(p.weight for p in patterns) == pytest.approx(
        sum(weights), abs=1e-7
    )
    # Every recovered pattern's path must connect its own node mapping.
    for pattern in patterns:
        for vlink in app.links:
            node = pattern.node_map[vlink.tail]
            for link in pattern.link_paths[vlink.key]:
                a, b = link
                node = b if node == a else a
            assert node == pattern.node_map[vlink.head]


# -- residual state bookkeeping -------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["edge-a", "transport", "core", "edge-b"]),
            st.floats(0.1, 50.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_residual_allocate_release_is_exact(operations):
    substrate = make_line_substrate(node_capacity=10_000.0)
    residual = ResidualState(substrate)
    loads = [
        ElementLoads(nodes={node: amount}) for node, amount in operations
    ]
    for load in loads:
        residual.allocate(load)
    for load in loads:
        residual.release(load)
    for node, attrs in substrate.nodes.items():
        assert residual_of_node(residual, node) == (
            pytest.approx(attrs.capacity)
        )


# -- workload statistics ---------------------------------------------------------


@given(st.integers(1, 200), st.floats(0.2, 4.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_zipf_weights_are_a_distribution(count, alpha):
    weights = zipf_weights(count, alpha)
    assert weights.sum() == pytest.approx(1.0)
    assert (np.diff(weights) <= 1e-12).all()


def demand_series_loop(requests, horizon):
    """Plain per-request twin of ``class_demand_series``."""
    series = {}
    for r in requests:
        out = series.setdefault(r.class_key(), np.zeros(horizon))
        out[min(r.arrival, horizon):min(r.departure, horizon)] += r.demand
    return series


@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(1, 10), st.floats(0.1, 5),
            st.integers(0, 2), st.sampled_from("abc"),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_demand_series_mass_conservation(raw):
    """Σ_t d(r̃, t) equals Σ_r d(r)·(active slots within horizon).

    The columns path also equals its plain per-request loop twin on
    every slot, bit for bit, given either Requests or their columns.
    """
    horizon = 25
    requests = [
        Request(
            arrival=arrival, id=i, app_index=app, ingress=ingress,
            demand=demand, duration=duration,
        )
        for i, (arrival, duration, demand, app, ingress) in enumerate(raw)
    ]
    series = class_demand_series(requests, horizon)
    total = sum(s.sum() for s in series.values())
    expected = sum(
        r.demand * max(0, min(r.departure, horizon) - min(r.arrival, horizon))
        for r in requests
    )
    assert total == pytest.approx(expected)
    twin = demand_series_loop(requests, horizon)
    assert list(series) == list(twin)
    for columns_series in (
        series, class_demand_series(RequestColumns.of(requests), horizon)
    ):
        for key, values in twin.items():
            assert (columns_series[key] == values).all()


@given(
    st.lists(st.floats(0.0, 1000.0, allow_nan=False), min_size=2, max_size=200),
    st.floats(1.0, 99.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_bootstrap_percentile_within_sample_range(values, alpha):
    series = np.asarray(values)
    estimate = bootstrap_percentile(series, alpha=alpha, rng=make_rng(0))
    assert series.min() - 1e-9 <= estimate.estimate <= series.max() + 1e-9
    assert estimate.ci_low <= estimate.estimate <= estimate.ci_high
