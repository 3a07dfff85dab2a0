"""Unit tests for repro.core.embedding and repro.core.residual."""

import pytest

from repro.apps.application import ROOT_ID, VNF, VNFKind
from repro.apps.efficiency import GpuAwareEfficiency, UniformEfficiency
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.residual import PlanResidual, ResidualState
from repro.errors import SimulationError
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.stats.aggregate import AggregateRequest
from tests.conftest import residual_of_link, residual_of_node


@pytest.fixture
def collocated_embedding():
    return Embedding(
        node_map={ROOT_ID: "edge-a", 1: "transport", 2: "transport"},
        link_paths={(0, 1): (("edge-a", "transport"),), (1, 2): ()},
    )


class TestComputeLoads:
    def test_node_and_link_loads(self, line_substrate, chain_app, collocated_embedding):
        loads = compute_loads(
            chain_app, 2.0, collocated_embedding, line_substrate,
            UniformEfficiency(),
        )
        # Two VNFs of β=10 at demand 2 collocated on transport.
        assert loads.nodes == {"transport": pytest.approx(40.0)}
        # Only the θ→v1 link (β=5) crosses the substrate link.
        assert loads.links == {("edge-a", "transport"): pytest.approx(10.0)}

    def test_root_contributes_no_load(self, line_substrate, chain_app, collocated_embedding):
        loads = compute_loads(
            chain_app, 1.0, collocated_embedding, line_substrate,
            UniformEfficiency(),
        )
        assert "edge-a" not in loads.nodes

    def test_cost_per_slot(self, line_substrate, chain_app, collocated_embedding):
        loads = compute_loads(
            chain_app, 2.0, collocated_embedding, line_substrate,
            UniformEfficiency(),
        )
        # transport cost 10/CU × 40 + link cost 1/CU × 10.
        assert loads.cost_per_slot(line_substrate) == pytest.approx(410.0)

    def test_forbidden_placement_raises(self, line_substrate, chain_app, collocated_embedding):
        class Forbidding(GpuAwareEfficiency):
            def node_eta(self, vnf, node):
                if vnf.kind is VNFKind.ROOT:
                    return 1.0
                return None

        with pytest.raises(SimulationError, match="forbidden"):
            compute_loads(
                chain_app, 1.0, collocated_embedding, line_substrate,
                Forbidding(),
            )

    def test_is_collocated(self, collocated_embedding):
        assert collocated_embedding.is_collocated()
        spread = Embedding(
            node_map={ROOT_ID: "a", 1: "b", 2: "c"}, link_paths={}
        )
        assert not spread.is_collocated()

    def test_from_pattern_copies(self):
        pattern = EmbeddingPattern(
            node_map={0: "a", 1: "b"},
            link_paths={(0, 1): (("a", "b"),)},
            weight=0.5,
        )
        embedding = Embedding.from_pattern(pattern)
        embedding.node_map[1] = "c"
        assert pattern.node_map[1] == "b"  # pattern untouched


class TestResidualState:
    def test_initial_residual_equals_capacity(self, line_substrate):
        residual = ResidualState(line_substrate)
        assert residual_of_node(residual, "edge-a") == 1000.0
        assert residual_of_link(residual, ("edge-a", "transport")) == 500.0

    def test_allocate_release_roundtrip(self, line_substrate):
        residual = ResidualState(line_substrate)
        loads = ElementLoads(
            nodes={"edge-a": 100.0}, links={("edge-a", "transport"): 50.0}
        )
        residual.allocate(loads)
        assert residual_of_node(residual, "edge-a") == 900.0
        residual.release(loads)
        assert residual_of_node(residual, "edge-a") == 1000.0

    def test_fits_boundary(self, line_substrate):
        residual = ResidualState(line_substrate)
        assert residual.fits(ElementLoads(nodes={"edge-a": 1000.0}))
        assert not residual.fits(ElementLoads(nodes={"edge-a": 1000.1}))

    def test_shortfall(self, line_substrate):
        residual = ResidualState(line_substrate)
        residual.allocate(ElementLoads(nodes={"edge-a": 950.0}))
        gap = residual.shortfall(
            ElementLoads(
                nodes={"edge-a": 100.0},
                links={("edge-a", "transport"): 10.0},
            )
        )
        assert gap.nodes == {"edge-a": pytest.approx(50.0)}
        assert gap.links == {}

    def test_overallocation_raises(self, line_substrate):
        residual = ResidualState(line_substrate)
        with pytest.raises(SimulationError, match="negative"):
            residual.allocate(ElementLoads(nodes={"edge-a": 2000.0}))

    def test_node_utilization(self, line_substrate):
        residual = ResidualState(line_substrate)
        residual.allocate(ElementLoads(nodes={"edge-a": 250.0}))
        assert residual.node_utilization("edge-a") == pytest.approx(0.25)


def _plan_with_two_patterns() -> Plan:
    aggregate = AggregateRequest(app_index=0, ingress="edge-a", demand=100.0)
    patterns = [
        EmbeddingPattern(node_map={0: "edge-a"}, link_paths={}, weight=0.6),
        EmbeddingPattern(node_map={0: "edge-a"}, link_paths={}, weight=0.4),
    ]
    class_plan = ClassPlan(
        aggregate=aggregate, patterns=patterns, rejected_fraction=0.0
    )
    return Plan(classes={aggregate.class_key: class_plan})


class TestPlanResidual:
    def test_initial_capacity_from_weights(self):
        residual = PlanResidual(_plan_with_two_patterns())
        key = (0, "edge-a")
        assert residual.residual[(key, 0)] == pytest.approx(60.0)
        assert residual.residual[(key, 1)] == pytest.approx(40.0)
        assert residual.guaranteed_remaining(key) == pytest.approx(100.0)

    def test_full_fit_prefers_largest_residual(self):
        residual = PlanResidual(_plan_with_two_patterns())
        key = (0, "edge-a")
        assert residual.find_full_fit(key, 10.0) == 0
        residual.draw(key, 0, 55.0)
        assert residual.find_full_fit(key, 10.0) == 1

    def test_full_fit_none_when_demand_too_large(self):
        residual = PlanResidual(_plan_with_two_patterns())
        assert residual.find_full_fit((0, "edge-a"), 70.0) is None

    def test_partial_fit_requires_positive_residual(self):
        residual = PlanResidual(_plan_with_two_patterns())
        key = (0, "edge-a")
        residual.draw(key, 0, 60.0)
        residual.draw(key, 1, 40.0)
        assert residual.find_partial_fit(key) is None
        residual.release(key, 1, 5.0)
        assert residual.find_partial_fit(key) == 1

    def test_unknown_class_has_no_fit(self):
        residual = PlanResidual(_plan_with_two_patterns())
        assert residual.find_full_fit((9, "zz"), 1.0) is None
        assert residual.find_partial_fit((9, "zz")) is None
        assert residual.guaranteed_remaining((9, "zz")) == 0.0

    def test_overdraw_raises(self):
        residual = PlanResidual(_plan_with_two_patterns())
        with pytest.raises(SimulationError):
            residual.draw((0, "edge-a"), 0, 61.0)
