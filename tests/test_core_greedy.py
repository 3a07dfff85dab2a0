"""Unit tests for GREEDYEMBED (repro.core.greedy)."""

import pytest

from repro.apps.application import ROOT_ID, VNF, Application, VirtualLink, VNFKind
from repro.apps.efficiency import GpuAwareEfficiency, UniformEfficiency
from repro.core.embedding import ElementLoads, compute_loads
from repro.core.greedy import greedy_embed
from repro.core.residual import ResidualState
from repro.substrate.network import LinkAttrs, NodeAttrs, SubstrateNetwork
from repro.substrate.tiers import Tier
from repro.workload.request import Request
from tests.conftest import (
    make_line_substrate,
    make_two_vnf_chain,
    set_link_residual,
    set_node_residual,
)


def _request(demand=1.0, ingress="edge-a"):
    return Request(
        arrival=0, id=1, app_index=0, ingress=ingress, demand=demand, duration=5
    )


class TestSingleHostGreedy:
    def test_prefers_cheapest_feasible_node(self, line_substrate, chain_app):
        residual = ResidualState(line_substrate)
        embedding = greedy_embed(
            _request(), chain_app, line_substrate, UniformEfficiency(), residual
        )
        assert embedding is not None
        # Node loads: 20/unit. Costs: edge-a 50×20=1000, transport
        # 10×20=200 + path 5, core 1×20=20 + path 10 → core wins.
        assert embedding.node_map[1] == "core"
        assert embedding.node_map[2] == "core"
        assert embedding.node_map[ROOT_ID] == "edge-a"

    def test_root_link_path_reaches_host(self, line_substrate, chain_app):
        residual = ResidualState(line_substrate)
        embedding = greedy_embed(
            _request(), chain_app, line_substrate, UniformEfficiency(), residual
        )
        assert embedding.link_paths[(0, 1)] == (
            ("edge-a", "transport"),
            ("core", "transport"),
        )
        assert embedding.link_paths[(1, 2)] == ()

    def test_respects_node_capacity(self, chain_app):
        # Make core too small for the request; transport next-cheapest.
        substrate = make_line_substrate(node_capacity=1000.0)
        residual = ResidualState(substrate)
        # below the 20-unit footprint
        set_node_residual(residual, "core", 10.0)
        embedding = greedy_embed(
            _request(), chain_app, substrate, UniformEfficiency(), residual
        )
        assert embedding.node_map[1] == "transport"

    def test_respects_link_capacity(self, chain_app):
        substrate = make_line_substrate()
        residual = ResidualState(substrate)
        # Block the only uplink: the request (link load 5) can't leave edge-a.
        set_link_residual(residual, ("edge-a", "transport"), 1.0)
        embedding = greedy_embed(
            _request(), chain_app, substrate, UniformEfficiency(), residual
        )
        assert embedding is not None
        assert embedding.node_map[1] == "edge-a"  # falls back to collocation

    def test_returns_none_when_nothing_fits(self, chain_app):
        substrate = make_line_substrate()
        residual = ResidualState(substrate)
        residual.node_residual[:] = [1.0] * len(residual.node_residual)
        assert (
            greedy_embed(
                _request(), chain_app, substrate, UniformEfficiency(), residual
            )
            is None
        )

    def test_embedding_fits_residual(self, line_substrate, chain_app):
        residual = ResidualState(line_substrate)
        embedding = greedy_embed(
            _request(demand=3.0), chain_app, line_substrate,
            UniformEfficiency(), residual,
        )
        loads = compute_loads(
            chain_app, 3.0, embedding, line_substrate, UniformEfficiency()
        )
        assert residual.fits(loads)


def _gpu_substrate() -> SubstrateNetwork:
    """Line substrate plus a GPU twin hanging off the core node."""
    base = make_line_substrate()
    nodes = dict(base.nodes)
    links = dict(base.links)
    nodes["core-gpu"] = NodeAttrs(
        tier=Tier.CORE, capacity=9000.0, cost=1.0, gpu=True
    )
    links[("core", "core-gpu")] = LinkAttrs(
        tier=Tier.CORE, capacity=4500.0, cost=1.0
    )
    return SubstrateNetwork(name="line4-gpu", nodes=nodes, links=links)


def _gpu_chain(gpu_position: int) -> Application:
    """θ → v1 → v2 with the GPU VNF at the given position (1 or 2)."""
    kinds = {
        1: VNFKind.GPU if gpu_position == 1 else VNFKind.GENERIC,
        2: VNFKind.GPU if gpu_position == 2 else VNFKind.GENERIC,
    }
    return Application(
        name=f"gpu-chain-{gpu_position}",
        vnfs=(
            VNF(ROOT_ID, 0.0, VNFKind.ROOT),
            VNF(1, 10.0, kinds[1]),
            VNF(2, 10.0, kinds[2]),
        ),
        links=(VirtualLink(0, 1, 5.0), VirtualLink(1, 2, 5.0)),
    )


class TestTwoHostGreedy:
    def test_gpu_vnf_lands_on_gpu_node(self):
        substrate = _gpu_substrate()
        residual = ResidualState(substrate)
        app = _gpu_chain(gpu_position=2)
        embedding = greedy_embed(
            _request(), app, substrate, GpuAwareEfficiency(), residual
        )
        assert embedding is not None
        assert substrate.nodes[embedding.node_map[2]].gpu
        assert not substrate.nodes[embedding.node_map[1]].gpu

    def test_gpu_first_chain_routes_through_gpu(self):
        substrate = _gpu_substrate()
        residual = ResidualState(substrate)
        app = _gpu_chain(gpu_position=1)
        embedding = greedy_embed(
            _request(), app, substrate, GpuAwareEfficiency(), residual
        )
        assert embedding is not None
        assert substrate.nodes[embedding.node_map[1]].gpu
        loads = compute_loads(
            app, 1.0, embedding, substrate, GpuAwareEfficiency()
        )
        assert residual.fits(loads)

    def test_collocation_only_mode_rejects_gpu_apps(self):
        substrate = _gpu_substrate()
        residual = ResidualState(substrate)
        app = _gpu_chain(gpu_position=2)
        embedding = greedy_embed(
            _request(), app, substrate, GpuAwareEfficiency(), residual,
            allow_split_groups=False,
        )
        assert embedding is None  # QUICKG's restriction (paper Fig. 10)

    def test_no_gpu_nodes_means_no_embedding(self, line_substrate):
        residual = ResidualState(line_substrate)
        app = _gpu_chain(gpu_position=2)
        embedding = greedy_embed(
            _request(), app, line_substrate, GpuAwareEfficiency(), residual
        )
        assert embedding is None
