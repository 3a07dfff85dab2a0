"""Tests for the extension modules: NODERANK, replanning, diurnal traces,
and topology analysis."""

import numpy as np
import pytest

from repro.apps.catalog import make_chain
from repro.baselines.noderank import NodeRankAlgorithm, compute_node_ranks
from repro.core.residual import ResidualState
from repro.errors import PlanError, WorkloadError
from repro.plan.replanning import ReplanningOliveAlgorithm
from repro.sim.engine import simulate
from repro.sim.metrics import rejection_rate
from repro.substrate.analysis import (
    analyze_topology,
    articulation_nodes,
    bottleneck_links,
    edge_uplink_capacity,
    tier_summaries,
)
from repro.substrate.network import LinkAttrs, NodeAttrs, SubstrateNetwork
from repro.substrate.tiers import Tier
from repro.substrate.topologies import make_citta_studi, make_iris
from repro.utils.rng import make_rng
from repro.workload.diurnal import diurnal_rates, generate_diurnal_trace
from repro.workload.request import Request
from repro.workload.trace import TraceConfig
from tests.conftest import (
    make_line_substrate,
    make_two_vnf_chain,
    set_node_residual,
)


def _request(rid, arrival=0, demand=1.0, ingress="edge-a", duration=5):
    return Request(
        arrival=arrival, id=rid, app_index=0, ingress=ingress,
        demand=demand, duration=duration,
    )


class TestNodeRanks:
    def test_ranks_form_distribution(self, line_substrate):
        ranks = compute_node_ranks(line_substrate, ResidualState(line_substrate))
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(r >= 0 for r in ranks.values())

    def test_high_capacity_nodes_rank_higher(self, line_substrate):
        ranks = compute_node_ranks(line_substrate, ResidualState(line_substrate))
        # Core has 9× edge capacity and 3× the link bandwidth.
        assert ranks["core"] > ranks["edge-a"]

    def test_depleted_node_loses_rank(self, line_substrate):
        residual = ResidualState(line_substrate)
        before = compute_node_ranks(line_substrate, residual)
        set_node_residual(residual, "core", 0.0)
        after = compute_node_ranks(line_substrate, residual)
        assert after["core"] < before["core"]

    def test_zero_capacity_everywhere(self, line_substrate):
        residual = ResidualState(line_substrate)
        residual.node_residual[:] = [0.0] * len(residual.node_residual)
        ranks = compute_node_ranks(line_substrate, residual)
        assert all(r == 0.0 for r in ranks.values())


class TestNodeRankAlgorithm:
    def test_accepts_and_releases(self, line_substrate, chain_app):
        algorithm = NodeRankAlgorithm(line_substrate, [chain_app])
        request = _request(1, demand=2.0)
        decision = algorithm.process(request)
        assert decision.accepted
        assert algorithm.active_demand() == pytest.approx(2.0)
        algorithm.release(request)
        assert algorithm.active_demand() == 0.0

    def test_rejects_when_full(self, chain_app):
        substrate = make_line_substrate(node_capacity=10.0, link_capacity=10.0)
        algorithm = NodeRankAlgorithm(substrate, [chain_app])
        decision = algorithm.process(_request(1, demand=100.0))
        assert not decision.accepted

    def test_spreads_across_nodes_when_needed(self, chain_app):
        # No single node fits both VNFs (20 each at demand 2 → 40), but
        # rank mapping places them one by one with provisional tracking.
        substrate = make_line_substrate(node_capacity=3.0, link_capacity=500.0)
        residual_boost = {"transport": 25.0, "core": 25.0}
        algorithm = NodeRankAlgorithm(substrate, [chain_app])
        for node, value in residual_boost.items():
            set_node_residual(algorithm.residual, node, value)
        decision = algorithm.process(_request(1, demand=2.0))
        assert decision.accepted
        hosts = {decision.embedding.node_map[1], decision.embedding.node_map[2]}
        assert hosts == {"transport", "core"}

    def test_second_virtual_link_detours_around_a_link_the_first_filled(
        self, chain_app
    ):
        """θ on a, v1 on c, v2 back on a: both virtual links want the
        direct a-c link (10 free, 7.5 each), so the second one must take
        the dearer a-b-c detour instead of overshooting a-c jointly."""
        substrate = SubstrateNetwork(
            name="triangle",
            nodes={
                v: NodeAttrs(tier=Tier.EDGE, capacity=1000.0, cost=1.0)
                for v in "abc"
            },
            links={
                ("a", "c"): LinkAttrs(tier=Tier.EDGE, capacity=10.0, cost=1.0),
                ("a", "b"): LinkAttrs(tier=Tier.EDGE, capacity=500.0, cost=1.0),
                ("b", "c"): LinkAttrs(tier=Tier.EDGE, capacity=500.0, cost=1.0),
            },
        )
        algorithm = NodeRankAlgorithm(substrate, [chain_app])
        algorithm._ranks = {"c": 3.0, "a": 2.0, "b": 1.0}
        set_node_residual(algorithm.residual, "c", 20.0)  # v1 only
        decision = algorithm.process(_request(1, ingress="a", demand=1.5))
        assert decision.accepted
        assert decision.embedding.node_map == {0: "a", 1: "c", 2: "a"}
        assert decision.embedding.link_paths == {
            (0, 1): (("a", "c"),),
            (1, 2): (("b", "c"), ("a", "b")),
        }

    def test_runs_under_simulator(self, line_substrate, chain_app):
        algorithm = NodeRankAlgorithm(line_substrate, [chain_app])
        requests = [_request(i, arrival=i % 4) for i in range(12)]
        result = simulate(algorithm, requests, 8)
        assert len(result.decisions) == 12
        assert result.algorithm_name == "NODERANK"


class TestReplanning:
    def test_validation(self, line_substrate, chain_app):
        with pytest.raises(PlanError):
            ReplanningOliveAlgorithm(
                line_substrate, [chain_app], interval=0
            )
        with pytest.raises(PlanError):
            ReplanningOliveAlgorithm(
                line_substrate, [chain_app], interval=10, window=5
            )

    def test_replans_at_interval(self, line_substrate, chain_app):
        algorithm = ReplanningOliveAlgorithm(
            line_substrate, [chain_app], interval=4, window=8
        )
        requests = [
            _request(i, arrival=i % 12, demand=1.0, duration=3)
            for i in range(60)
        ]
        simulate(algorithm, requests, 12)
        # Replans at t = 4 and t = 8 (never at t = 0).
        assert algorithm.replan_count == 2
        assert not algorithm.plan.is_empty

    def test_starts_planless_like_quickg(self, line_substrate, chain_app):
        algorithm = ReplanningOliveAlgorithm(
            line_substrate, [chain_app], interval=100, window=100
        )
        decision = algorithm.process(_request(1))
        assert decision.accepted and decision.via_greedy

    def test_planned_allocations_after_replan(self, line_substrate, chain_app):
        algorithm = ReplanningOliveAlgorithm(
            line_substrate, [chain_app], interval=4, window=8
        )
        # Steady demand so the replanned aggregate is positive.
        requests = [
            _request(i, arrival=i // 5, demand=1.0, duration=4)
            for i in range(50)
        ]
        result = simulate(algorithm, requests, 10)
        planned = [d for d in result.decisions if d.planned]
        assert planned, "replanned OLIVE should serve some requests as planned"


class TestDiurnal:
    def test_rates_oscillate_around_mean(self):
        rates = diurnal_rates(400, mean_rate=100.0, amplitude=0.5, period=100)
        assert rates.mean() == pytest.approx(100.0, rel=0.01)
        assert rates.max() == pytest.approx(150.0, rel=0.01)
        assert rates.min() == pytest.approx(50.0, rel=0.01)

    def test_rate_validation(self):
        with pytest.raises(WorkloadError):
            diurnal_rates(10, 1.0, amplitude=1.0)
        with pytest.raises(WorkloadError):
            diurnal_rates(10, 1.0, period=1)

    def test_trace_has_diurnal_structure(self, line_substrate, rng):
        apps = [make_chain(rng, num_vnfs=3)]
        config = TraceConfig(
            history_slots=300, online_slots=20, arrivals_per_node=20.0
        )
        trace = generate_diurnal_trace(
            line_substrate, apps, config, rng, amplitude=0.8, period=100
        )
        counts = np.zeros(300)
        for request in trace.history_requests():
            counts[request.arrival] += 1
        # Peak-phase slots should see far more arrivals than trough-phase.
        peak = counts[15:35].mean()  # sin max near t = 25
        trough = counts[65:85].mean()  # sin min near t = 75
        assert peak > 2 * trough

    def test_trace_determinism(self, line_substrate):
        apps = [make_chain(make_rng(0), num_vnfs=3)]
        config = TraceConfig(history_slots=50, online_slots=10)
        a = generate_diurnal_trace(line_substrate, apps, config, make_rng(3))
        b = generate_diurnal_trace(line_substrate, apps, config, make_rng(3))
        assert a.history_requests() == b.history_requests()
        assert a.online_requests() == b.online_requests()


class TestTopologyAnalysis:
    def test_tier_summaries_cover_all_tiers(self):
        summaries = tier_summaries(make_iris())
        assert set(summaries) == {Tier.EDGE, Tier.TRANSPORT, Tier.CORE}
        assert summaries[Tier.EDGE].num_nodes == 34
        assert summaries[Tier.EDGE].total_capacity == pytest.approx(6.8e6)

    def test_edge_uplink_capacity(self, line_substrate):
        uplinks = edge_uplink_capacity(line_substrate)
        assert uplinks["edge-a"] == pytest.approx(500.0)
        assert set(uplinks) == {"edge-a", "edge-b"}

    def test_bottlenecks_sorted_descending(self):
        scored = bottleneck_links(make_citta_studi(), top=5)
        assert len(scored) == 5
        values = [v for _, v in scored]
        assert values == sorted(values, reverse=True)

    def test_articulation_nodes_on_line(self, line_substrate):
        # Every interior node of a line disconnects it.
        assert articulation_nodes(line_substrate) == ["core", "transport"]

    def test_full_report(self):
        report = analyze_topology(make_iris())
        assert report.name == "Iris"
        assert report.diameter_hops >= 2
        assert report.oversubscription() > 0
        assert report.mean_edge_uplink_capacity > 0
        assert len(report.bottleneck_links) == 5
