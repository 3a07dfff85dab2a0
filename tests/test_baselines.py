"""Unit tests for the baselines: QUICKG, FULLG, SLOTOFF."""

import itertools
import math

import pytest

from repro.apps.efficiency import UniformEfficiency
from repro.baselines.fullg import FullGAlgorithm, exact_embed
from repro.baselines.quickg import make_quickg
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.core.embedding import Embedding, compute_loads
from repro.core.residual import ResidualState
from repro.plan.formulation import PlanVNEConfig
from repro.utils.paths import cheapest_host_search, tree_path
from repro.workload.request import Request
from tests.conftest import (
    make_line_substrate,
    make_two_vnf_chain,
    set_link_residual,
    set_node_residual,
)


def _request(rid=1, demand=1.0, ingress="edge-a", arrival=0, duration=5, app=0):
    return Request(
        arrival=arrival, id=rid, app_index=app, ingress=ingress,
        demand=demand, duration=duration,
    )


class TestQuickG:
    def test_has_no_plan_and_no_preemption(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        assert quickg.name == "QUICKG"
        assert quickg.plan.is_empty
        assert not quickg.enable_preemption
        assert not quickg.allow_split_greedy

    def test_every_acceptance_is_greedy(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        decision = quickg.process(_request())
        assert decision.accepted and decision.via_greedy
        assert not decision.planned and not decision.borrowed


def _brute_force_min_cost(request, app, substrate, residual):
    """Enumerate all node placements with per-link shortest paths."""
    efficiency = UniformEfficiency()
    nodes = list(substrate.nodes)
    best = None
    for placement in itertools.product(nodes, repeat=app.num_vnfs):
        node_map = {0: request.ingress}
        node_map.update({i + 1: placement[i] for i in range(app.num_vnfs)})
        link_paths = {}
        ok = True
        for vlink in app.links:
            load = request.demand * vlink.size
            index = residual.index
            _, parent_node, parent_link, dist, _ = cheapest_host_search(
                index.adj, index.link_cost_list,
                ((index.node_index[node_map[vlink.tail]], 0.0),), load,
                residual.link_residual, math.inf, index.node_cost_list,
                index.min_node_cost, residual.node_residual,
            )
            head = index.node_index[node_map[vlink.head]]
            if dist[head] == math.inf:
                ok = False
                break
            _, path = tree_path(parent_node, parent_link, head)
            link_paths[vlink.key] = tuple(index.link_ids[p] for p in path)
        if not ok:
            continue
        embedding = Embedding(node_map=node_map, link_paths=link_paths)
        try:
            loads = compute_loads(
                app, request.demand, embedding, substrate, efficiency
            )
        except Exception:
            continue
        if not residual.fits(loads):
            continue
        cost = loads.cost_per_slot(substrate)
        if best is None or cost < best[0]:
            best = (cost, embedding)
    return best


class TestFullG:
    def test_matches_brute_force_on_empty_substrate(self, line_substrate, chain_app):
        residual = ResidualState(line_substrate)
        request = _request(demand=2.0)
        embedding = exact_embed(
            request, chain_app, line_substrate, UniformEfficiency(), residual
        )
        assert embedding is not None
        loads = compute_loads(
            chain_app, 2.0, embedding, line_substrate, UniformEfficiency()
        )
        expected = _brute_force_min_cost(
            request, chain_app, line_substrate, residual
        )
        assert loads.cost_per_slot(line_substrate) == pytest.approx(
            expected[0]
        )

    def test_matches_brute_force_under_partial_load(self, chain_app):
        substrate = make_line_substrate(node_capacity=200.0, link_capacity=50.0)
        residual = ResidualState(substrate)
        set_node_residual(residual, "core", 15.0)  # cheapest node nearly full
        # ... and hard to reach
        set_link_residual(residual, ("core", "transport"), 4.0)
        request = _request(demand=1.0)
        embedding = exact_embed(
            request, chain_app, substrate, UniformEfficiency(), residual
        )
        expected = _brute_force_min_cost(request, chain_app, substrate, residual)
        assert (embedding is None) == (expected is None)
        if embedding is not None:
            loads = compute_loads(
                chain_app, 1.0, embedding, substrate, UniformEfficiency()
            )
            assert loads.cost_per_slot(substrate) == pytest.approx(expected[0])

    def test_rejects_when_no_capacity(self, line_substrate, chain_app):
        residual = ResidualState(line_substrate)
        residual.node_residual[:] = [0.5] * len(residual.node_residual)
        assert (
            exact_embed(
                _request(), chain_app, line_substrate, UniformEfficiency(),
                residual,
            )
            is None
        )

    def test_algorithm_interface_roundtrip(self, line_substrate, chain_app):
        fullg = FullGAlgorithm(line_substrate, [chain_app])
        request = _request(demand=3.0)
        decision = fullg.process(request)
        assert decision.accepted
        assert fullg.active_demand() == pytest.approx(3.0)
        before = list(fullg.residual.node_residual)
        fullg.release(request)
        assert fullg.active_demand() == 0.0
        assert fullg.residual.node_residual != before  # capacity restored

    def test_spreads_when_capacity_forces_it(self):
        """A VNF too big for the cheap node lands elsewhere; the rest stay."""
        from repro.apps.application import ROOT_ID, Application, VNF, VNFKind, VirtualLink

        app = Application(
            name="uneven-chain",
            vnfs=(
                VNF(ROOT_ID, 0.0, VNFKind.ROOT),
                VNF(1, 10.0),
                VNF(2, 30.0),
            ),
            links=(VirtualLink(0, 1, 5.0), VirtualLink(1, 2, 5.0)),
        )
        substrate = make_line_substrate(node_capacity=500.0, link_capacity=500.0)
        residual = ResidualState(substrate)
        # fits v1 (10) but not v2 (30)
        set_node_residual(residual, "core", 25.0)
        request = _request(demand=1.0)
        embedding = exact_embed(
            request, app, substrate, UniformEfficiency(), residual
        )
        assert embedding is not None
        assert embedding.node_map[1] == "core"
        assert embedding.node_map[2] == "transport"

    def test_joint_capacity_limitation_is_conservative(self, chain_app):
        """Documented DP approximation: per-element pricing can pick a
        mapping whose joint load overshoots one element; the post-check
        then rejects rather than accept an infeasible embedding."""
        substrate = make_line_substrate(node_capacity=500.0, link_capacity=500.0)
        residual = ResidualState(substrate)
        # Every node fits one VNF (20 each at demand 2 → 40 jointly) but
        # none fits both; the DP collocates on the cheapest and the exact
        # feasibility check refuses. Conservative: reject, never violate.
        residual.node_residual[:] = [25.0] * len(residual.node_residual)
        request = _request(demand=2.0)
        embedding = exact_embed(
            request, chain_app, substrate, UniformEfficiency(), residual
        )
        assert embedding is None


class TestSlotOff:
    def test_accepts_everything_when_capacity_ample(self, line_substrate, chain_app):
        slotoff = SlotOffAlgorithm(line_substrate, [chain_app])
        arrivals = [_request(rid=i, demand=1.0) for i in range(5)]
        result = slotoff.run_slot(0, arrivals)
        assert all(d.accepted for d in result.decisions)
        assert slotoff.active_demand() == pytest.approx(5.0)
        assert result.resource_cost > 0

    def test_rejects_overload_and_never_reconsiders(self, chain_app):
        substrate = make_line_substrate(node_capacity=100.0, link_capacity=10.0)
        slotoff = SlotOffAlgorithm(substrate, [chain_app])
        # Node footprint 20/unit: capacity fits ~5 units at edge-a; links
        # (cap 10, load 5/unit) let barely 2 units leave. Ask for 20 units.
        arrivals = [_request(rid=i, demand=2.0) for i in range(10)]
        result = slotoff.run_slot(0, arrivals)
        accepted = [d for d in result.decisions if d.accepted]
        rejected = [d for d in result.decisions if not d.accepted]
        assert rejected, "overload must cause rejections"
        # Earliest-first apportioning: accepted ids form a prefix.
        accepted_ids = sorted(d.request.id for d in accepted)
        assert accepted_ids == list(range(len(accepted_ids)))
        # Rejected requests are not reconsidered in later slots.
        later = slotoff.run_slot(1, [])
        assert later.decisions == []
        assert slotoff.active_demand() == pytest.approx(
            sum(d.request.demand for d in accepted)
        )

    def test_release_removes_from_population(self, line_substrate, chain_app):
        slotoff = SlotOffAlgorithm(line_substrate, [chain_app])
        request = _request(rid=1, demand=2.0)
        slotoff.run_slot(0, [request])
        slotoff.release(request)
        assert slotoff.active_demand() == 0.0

    def test_empty_slot_costs_nothing(self, line_substrate, chain_app):
        slotoff = SlotOffAlgorithm(line_substrate, [chain_app])
        result = slotoff.run_slot(0, [])
        assert result.resource_cost == 0.0
        assert slotoff.active_cost_per_slot() == 0.0

    def test_quantile_config_propagates(self, line_substrate, chain_app):
        slotoff = SlotOffAlgorithm(
            line_substrate, [chain_app], config=PlanVNEConfig(num_quantiles=3)
        )
        assert slotoff.config.num_quantiles == 3
