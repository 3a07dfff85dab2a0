"""PLAN-VNE formulation under placement restrictions (GPU scenario)."""

import pytest

from repro.apps.application import ROOT_ID, VNF, Application, VirtualLink, VNFKind
from repro.apps.efficiency import GpuAwareEfficiency
from repro.lp.solver import solve_lp
from repro.plan.api import compute_plan
from repro.plan.formulation import build_plan_vne
from repro.stats.aggregate import AggregateRequest
from repro.substrate.network import LinkAttrs, NodeAttrs, SubstrateNetwork
from repro.substrate.tiers import Tier


@pytest.fixture
def gpu_substrate() -> SubstrateNetwork:
    """edge — transport — core, plus a GPU twin on the core."""
    nodes = {
        "edge": NodeAttrs(Tier.EDGE, 1000.0, 50.0),
        "transport": NodeAttrs(Tier.TRANSPORT, 3000.0, 10.0),
        "core": NodeAttrs(Tier.CORE, 9000.0, 1.0),
        "core-gpu": NodeAttrs(Tier.CORE, 9000.0, 1.0, gpu=True),
    }
    links = {
        ("edge", "transport"): LinkAttrs(Tier.EDGE, 5000.0, 1.0),
        ("core", "transport"): LinkAttrs(Tier.TRANSPORT, 15000.0, 1.0),
        ("core", "core-gpu"): LinkAttrs(Tier.CORE, 45000.0, 1.0),
    }
    return SubstrateNetwork(name="gpu-line", nodes=nodes, links=links)


@pytest.fixture
def gpu_app() -> Application:
    return Application(
        name="gpu-chain",
        vnfs=(
            VNF(ROOT_ID, 0.0, VNFKind.ROOT),
            VNF(1, 10.0, VNFKind.GENERIC),
            VNF(2, 10.0, VNFKind.GPU),
        ),
        links=(VirtualLink(0, 1, 5.0), VirtualLink(1, 2, 5.0)),
    )


class TestGpuFormulation:
    def test_forbidden_placements_have_no_variables(self, gpu_substrate, gpu_app):
        aggregates = [AggregateRequest(0, "edge", 10.0)]
        model = build_plan_vne(
            gpu_substrate, [gpu_app], aggregates, GpuAwareEfficiency()
        )
        nodes = list(gpu_substrate.nodes)
        layout = model.layout[0]
        hosts = {
            vnf.id: {nodes[i] for i in positions}
            for vnf, positions in zip(gpu_app.vnfs, layout.hosts)
        }
        # GPU VNF (id 2) may only sit on the GPU node.
        assert hosts[2] == {"core-gpu"}
        # Generic VNF (id 1) may sit anywhere except the GPU node.
        assert hosts[1] == {"edge", "transport", "core"}
        # No variable exists for a forbidden placement.
        assert layout.node_start[2] - layout.node_start[1] == 3

    def test_plan_respects_gpu_exclusivity(self, gpu_substrate, gpu_app):
        aggregates = [AggregateRequest(0, "edge", 10.0)]
        plan = compute_plan(
            gpu_substrate, [gpu_app], aggregates, GpuAwareEfficiency()
        )
        class_plan = plan.class_plan((0, "edge"))
        assert class_plan is not None
        for pattern in class_plan.patterns:
            assert pattern.node_map[2] == "core-gpu"
            assert pattern.node_map[1] != "core-gpu"

    def test_full_allocation_feasible_through_gpu(self, gpu_substrate, gpu_app):
        aggregates = [AggregateRequest(0, "edge", 10.0)]
        model = build_plan_vne(
            gpu_substrate, [gpu_app], aggregates, GpuAwareEfficiency()
        )
        solution = solve_lp(model.program)
        assert solution.values[model.layout[0].root] == pytest.approx(1.0)

    def test_no_gpu_node_forces_rejection(self, gpu_app):
        """Without any GPU datacenter the class is fully rejected."""
        nodes = {
            "edge": NodeAttrs(Tier.EDGE, 1000.0, 50.0),
            "core": NodeAttrs(Tier.CORE, 9000.0, 1.0),
        }
        links = {("core", "edge"): LinkAttrs(Tier.EDGE, 5000.0, 1.0)}
        substrate = SubstrateNetwork(name="no-gpu", nodes=nodes, links=links)
        plan = compute_plan(
            substrate, [gpu_app],
            [AggregateRequest(0, "edge", 10.0)],
            GpuAwareEfficiency(),
        )
        assert plan.class_plan((0, "edge")) is None  # nothing allocatable
