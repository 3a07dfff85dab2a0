"""Property tests: per-slot accounting invariants on real scenarios.

Two invariants must hold after *every* slot, for every algorithm built on
the shared ledger (OLIVE, QUICKG, OLIVE-W, FULLG, NODERANK):

1. ``allocated_demand[t]`` equals the summed demand of the requests
   active at ``t`` — accepted at arrival, not yet departed, and not
   preempted at or before ``t`` (reconstructed independently from the
   decision log).
2. Substrate residual plus the recomputed loads of the active
   allocations equals capacity on every node and link — the incremental
   bookkeeping (and its indexed-list backend) never drifts from the
   ground truth.

A third is checked once per algorithm: an id offered again while it is
still active is refused and books nothing. A fourth after every slot
again: the ledger's ``preemptible`` index is the non-planned rows of
``active`` — across reroute events, ``switch_plan`` and a restore.

Unlike ``test_property_olive.py`` (hand-built substrates, synthetic
request streams), these run the full scenario pipeline — topology, MMPP
trace, PLAN-VNE plan, windowed plans — at miniature scale.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import resolve_events
from repro.baselines.noderank import NodeRankAlgorithm
from repro.core.embedding import compute_loads
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario, make_algorithm
from repro.scenarios.events import capacity_invariant_gap
from repro.serve import EmbedderService
from repro.sim.engine import simulate
from repro.sim.session import SimulationSession
from tests.conftest import assert_preemptible_is_derived

# OLIVE-W recomputes a windowed plan schedule per hypothesis example,
# pushing its parametrizations past the 10 s line — they move to the
# slow tier, which CI runs in its own `pytest tests -m slow` step.
ALGORITHMS = (
    "OLIVE",
    "QUICKG",
    pytest.param("OLIVE-W", marks=pytest.mark.slow),
    "FULLG",
    "NODERANK",
)

#: Small enough that one scenario builds in well under a second.
_CONFIG = ExperimentConfig.test(
    history_slots=40, online_slots=10, arrivals_per_node=3.0,
    measure_start=2, measure_stop=8,
)

_scenarios: dict = {}


def _scenario(seed: int, utilization: float):
    key = (seed, utilization)
    if key not in _scenarios:
        _scenarios[key] = build_scenario(
            _CONFIG.with_(utilization=utilization), seed
        )
    return _scenarios[key]


def _build(algorithm: str, scenario):
    if algorithm == "NODERANK":  # an extra comparison point, not registered
        return NodeRankAlgorithm(
            scenario.substrate, scenario.apps, scenario.efficiency
        )
    return make_algorithm(algorithm, scenario)


def _expected_allocated(result) -> np.ndarray:
    preempted_at = {r.id: t for r, t in result.preemptions}
    expected = np.zeros(result.num_slots)
    for decision in result.decisions:
        if not decision.accepted:
            continue
        request = decision.request
        stop = min(request.departure, result.num_slots)
        stop = min(stop, preempted_at.get(request.id, stop))
        for t in range(request.arrival, stop):
            expected[t] += request.demand
    return expected


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(
    seed=st.integers(0, 4),
    utilization=st.sampled_from([0.6, 1.0, 1.4]),
)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_allocated_demand_matches_active_requests(
    algorithm, seed, utilization
):
    scenario = _scenario(seed, utilization)
    result = simulate(
        _build(algorithm, scenario),
        scenario.online_requests(),
        scenario.config.online_slots,
    )
    np.testing.assert_allclose(
        result.allocated_demand, _expected_allocated(result), rtol=1e-9
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@given(
    seed=st.integers(0, 4),
    utilization=st.sampled_from([0.6, 1.0, 1.4]),
)
@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_residual_plus_active_loads_is_capacity(algorithm, seed, utilization):
    scenario = _scenario(seed, utilization)
    alg = _build(algorithm, scenario)
    substrate = scenario.substrate
    requests = scenario.online_requests()
    by_arrival: dict[int, list] = {}
    by_departure: dict[int, list] = {}
    for request in requests:
        by_arrival.setdefault(request.arrival, []).append(request)
        by_departure.setdefault(request.departure, []).append(request)

    on_slot = getattr(alg, "on_slot", None)
    for t in range(scenario.config.online_slots):
        for request in by_departure.get(t, []):
            alg.release(request)
        if on_slot is not None:
            on_slot(t)
        for request in by_arrival.get(t, []):
            alg.process(request)
        assert_preemptible_is_derived(alg)

        # Ground truth: recompute every active allocation's loads from
        # its embedding and subtract from raw capacity.
        expected_nodes = {
            v: substrate.node_capacity(v) for v in substrate.nodes
        }
        expected_links = {
            l: substrate.link_capacity(l) for l in substrate.links
        }
        for allocation in alg.active.values():
            loads = compute_loads(
                scenario.apps[allocation.request.app_index],
                allocation.request.demand,
                allocation.embedding,
                substrate,
                alg.efficiency,
            )
            for node, load in loads.nodes.items():
                expected_nodes[node] -= load
            for link, load in loads.links.items():
                expected_links[link] -= load
        for node, expected in expected_nodes.items():
            assert alg.residual.nodes[node] == pytest.approx(
                expected, abs=1e-6 * max(1.0, abs(expected))
            ), (algorithm, t, node)
        for link, expected in expected_links.items():
            assert alg.residual.links[link] == pytest.approx(
                expected, abs=1e-6 * max(1.0, abs(expected))
            ), (algorithm, t, link)


@pytest.mark.parametrize("algorithm", (*ALGORITHMS, "OLIVE-RE"))
def test_preemptible_is_the_non_planned_rows(algorithm):
    """After every slot of an overloaded run under a rerouting blackout,
    restored from a snapshot halfway — and never in a checkpoint."""
    scenario = _scenario(0, 1.4)
    slots = scenario.config.online_slots
    session = SimulationSession(
        _build(algorithm, scenario), scenario.online_requests(), slots,
        events=resolve_events("blackout", scenario, 0, "reroute"),
    )
    planned = borrowed = 0
    for t in range(slots):
        if t == slots // 2:
            session = SimulationSession.restore(session.snapshot())
            assert_preemptible_is_derived(session.algorithm)
        report = session.step()
        alg = session.algorithm
        assert_preemptible_is_derived(alg)
        planned += sum(d.planned for d in report.decisions)
        borrowed += sum(
            d.accepted and not d.planned for d in report.decisions
        )
    assert "preemptible" not in alg.__getstate__()
    assert session.result().num_events > 0 and borrowed
    if algorithm.startswith("OLIVE"):
        assert planned and session.result().preemptions
        # OLIVE-W / OLIVE-RE switched plans on the way.
        assert (algorithm == "OLIVE") == (alg.plan == scenario.plan)


@pytest.mark.parametrize(
    "algorithm", ["OLIVE", "QUICKG", "FULLG", "OLIVE-W", "OLIVE-RE", "NODERANK"]
)
def test_reoffered_active_id_is_refused_and_books_nothing(algorithm):
    """A second ``process()`` of an id that is still active raises and
    changes nothing: the one ``release()`` returns all of its capacity.
    The same through the service's ``offer()``."""
    scenario = _scenario(0, 1.0)
    slots = scenario.config.online_slots
    request = next(
        r for r in scenario.online_requests() if r.departure < slots
    )

    alg = _build(algorithm, scenario)
    assert alg.process(request).accepted
    booked = (
        list(alg.residual.node_residual), list(alg.residual.link_residual)
    )
    with pytest.raises(SimulationError, match="processed twice"):
        alg.process(request)
    assert list(alg.active) == [request.id]
    assert booked == (
        list(alg.residual.node_residual), list(alg.residual.link_residual)
    )
    assert capacity_invariant_gap(alg) == 0
    alg.release(request)
    assert not alg.active and alg.active_demand() == 0
    assert capacity_invariant_gap(alg) == 0

    service = EmbedderService(
        SimulationSession(_build(algorithm, scenario), (), slots)
    )
    assert service.offer(request).accepted
    with pytest.raises(SimulationError, match="processed twice"):
        service.offer(request)
    assert capacity_invariant_gap(service.algorithm) == 0
    service.advance_to(request.departure + 1)
    assert [d.request for d in service.result().decisions] == [request]
    assert not service.algorithm.active
    assert capacity_invariant_gap(service.algorithm) == 0
