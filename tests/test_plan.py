"""Unit tests for repro.plan: the PLAN-VNE LP, decomposition, and plans."""

import numpy as np
import pytest

from repro.apps.application import ROOT_ID
from repro.apps.efficiency import UniformEfficiency
from repro.errors import PlanError
from repro.lp.solver import solve_lp
from repro.plan.api import compute_plan, empty_plan
from repro.plan.decompose import decompose_class
from repro.plan.formulation import PlanVNEConfig, build_plan_vne
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.plan.rejection import rejection_factor
from repro.stats.aggregate import AggregateRequest
from tests.conftest import make_line_substrate, make_two_vnf_chain


@pytest.fixture
def small_instance(line_substrate, chain_app):
    aggregates = [AggregateRequest(app_index=0, ingress="edge-a", demand=10.0)]
    return line_substrate, [chain_app], aggregates


class TestFormulation:
    def test_root_variable_only_at_ingress(self, small_instance):
        substrate, apps, aggregates = small_instance
        model = build_plan_vne(substrate, apps, aggregates)
        (layout,) = model.layout
        root = [vnf.id for vnf in apps[0].vnfs].index(ROOT_ID)
        assert layout.node_start[root] == layout.root
        nodes = list(substrate.nodes)
        assert [nodes[i] for i in layout.hosts[root]] == ["edge-a"]

    def test_quantile_bounds_are_one_over_p(self, small_instance):
        substrate, apps, aggregates = small_instance
        config = PlanVNEConfig(num_quantiles=4)
        model = build_plan_vne(substrate, apps, aggregates, config=config)
        compiled = model.program.compile()
        first = model.layout[0].quantile_start
        assert compiled.upper[first:first + 4] == pytest.approx([0.25] * 4)
        assert len(compiled.upper) == first + 4

    def test_quantile_rejection_cost_increases_with_p(self, small_instance):
        substrate, apps, aggregates = small_instance
        model = build_plan_vne(substrate, apps, aggregates)
        first = model.layout[0].quantile_start
        costs = [
            model.program.objective_coefficient(first + p - 1)
            for p in range(1, 11)
        ]
        assert all(b > a for a, b in zip(costs, costs[1:]))
        # Cost of quantile p is exactly p times the base (quantile-1) cost.
        assert costs[4] == pytest.approx(5 * costs[0])

    def test_arc_variables_cover_both_directions(self, small_instance):
        substrate, apps, aggregates = small_instance
        model = build_plan_vne(substrate, apps, aggregates)
        layout = model.layout[0]
        # One variable per substrate link and direction, per virtual link.
        ends = [*layout.arc_start[1:], layout.quantile_start]
        for start, end in zip(layout.arc_start, ends):
            assert end - start == 2 * substrate.num_links

    def test_full_allocation_when_capacity_ample(self, small_instance):
        substrate, apps, aggregates = small_instance
        model = build_plan_vne(substrate, apps, aggregates)
        solution = solve_lp(model.program)
        assert solution.values[model.layout[0].root] == pytest.approx(1.0)

    def test_rejection_when_capacity_tight(self, chain_app):
        # Node footprint per unit demand is 20; edge-a capacity 1000 and all
        # other placements are behind a link of capacity 30 (link footprint
        # per unit demand is 5), so at most 6 demand units can leave edge-a.
        substrate = make_line_substrate(node_capacity=1000.0, link_capacity=30.0)
        aggregates = [
            AggregateRequest(app_index=0, ingress="edge-a", demand=100.0)
        ]
        model = build_plan_vne(substrate, [chain_app], aggregates)
        solution = solve_lp(model.program)
        allocated = solution.values[model.layout[0].root]
        # edge-a alone hosts 1000 / 20 = 50 units; the link adds ≤ 6 more.
        assert allocated < 0.6
        assert allocated > 0.45

    def test_unknown_ingress_raises(self, line_substrate, chain_app):
        aggregates = [AggregateRequest(app_index=0, ingress="nope", demand=1.0)]
        with pytest.raises(PlanError, match="unknown ingress"):
            build_plan_vne(line_substrate, [chain_app], aggregates)

    @pytest.mark.parametrize(
        ("field", "value", "match"),
        [
            ("app_index", 1, "unknown application"),
            ("app_index", -1, "unknown application"),
            ("demand", -5.0, "demand must be positive"),
            ("demand", float("nan"), "demand must be positive"),
        ],
    )
    def test_malformed_aggregate_raises(
        self, line_substrate, chain_app, field, value, match
    ):
        aggregate = dict(app_index=0, ingress="edge-a", demand=10.0)
        aggregate[field] = value
        aggregates = [
            AggregateRequest(app_index=0, ingress="edge-b", demand=10.0),
            AggregateRequest(**aggregate),
        ]
        with pytest.raises(PlanError, match=match):
            compute_plan(line_substrate, [chain_app], aggregates)

    def test_config_rejects_zero_quantiles(self):
        with pytest.raises(PlanError):
            PlanVNEConfig(num_quantiles=0)


class TestRejectionFactor:
    def test_formula(self, line_substrate, chain_app):
        psi = rejection_factor(chain_app, line_substrate, path_hops=3)
        # node part: 20 × 50 (max node cost); link part: 10 × 1 × 3.
        assert psi == pytest.approx(20 * 50.0 + 10 * 1.0 * 3)

    def test_more_hops_cost_more(self, line_substrate, chain_app):
        assert rejection_factor(
            chain_app, line_substrate, path_hops=5
        ) > rejection_factor(chain_app, line_substrate, path_hops=1)


class TestDecompose:
    def test_collocated_solution_single_pattern(self, chain_app):
        node_mass = {
            ROOT_ID: {"edge-a": 1.0},
            1: {"edge-a": 1.0},
            2: {"edge-a": 1.0},
        }
        arc_flow = {(0, 1): {}, (1, 2): {}}
        patterns, lost = decompose_class(
            chain_app, "edge-a", node_mass, arc_flow
        )
        assert lost == pytest.approx(0.0, abs=1e-9)
        assert len(patterns) == 1
        assert patterns[0].weight == pytest.approx(1.0)
        assert patterns[0].node_map == {0: "edge-a", 1: "edge-a", 2: "edge-a"}
        assert patterns[0].link_paths[(0, 1)] == ()

    def test_split_solution_two_patterns(self, chain_app):
        # Half stays at edge-a, half goes v1,v2 → transport.
        node_mass = {
            ROOT_ID: {"edge-a": 1.0},
            1: {"edge-a": 0.5, "transport": 0.5},
            2: {"edge-a": 0.5, "transport": 0.5},
        }
        arc_flow = {
            (0, 1): {("edge-a", "transport"): 0.5},
            (1, 2): {},
        }
        patterns, lost = decompose_class(
            chain_app, "edge-a", node_mass, arc_flow
        )
        assert lost == pytest.approx(0.0, abs=1e-9)
        assert len(patterns) == 2
        weights = sorted(p.weight for p in patterns)
        assert weights == pytest.approx([0.5, 0.5])
        hosts = {p.node_map[1] for p in patterns}
        assert hosts == {"edge-a", "transport"}

    def test_partial_allocation_reflected_in_weights(self, chain_app):
        node_mass = {
            ROOT_ID: {"edge-a": 0.7},
            1: {"edge-a": 0.7},
            2: {"edge-a": 0.7},
        }
        arc_flow = {(0, 1): {}, (1, 2): {}}
        patterns, lost = decompose_class(
            chain_app, "edge-a", node_mass, arc_flow
        )
        assert sum(p.weight for p in patterns) == pytest.approx(0.7)

    def test_cycle_in_flow_is_cancelled(self, chain_app):
        # A spurious transport→core→transport cycle rides on a valid flow.
        node_mass = {
            ROOT_ID: {"edge-a": 1.0},
            1: {"transport": 1.0},
            2: {"transport": 1.0},
        }
        arc_flow = {
            (0, 1): {
                ("edge-a", "transport"): 1.0,
                ("transport", "core"): 0.3,
                ("core", "transport"): 0.3,
            },
            (1, 2): {},
        }
        patterns, lost = decompose_class(
            chain_app, "edge-a", node_mass, arc_flow
        )
        assert sum(p.weight for p in patterns) == pytest.approx(1.0)
        # The cycle must not appear in any pattern path.
        for pattern in patterns:
            assert len(pattern.link_paths[(0, 1)]) == 1

    def test_dead_end_reports_lost_mass(self, chain_app):
        # Flow leads to core but v1 has no mass anywhere reachable.
        node_mass = {
            ROOT_ID: {"edge-a": 1.0},
            1: {},
            2: {},
        }
        arc_flow = {(0, 1): {}, (1, 2): {}}
        patterns, lost = decompose_class(
            chain_app, "edge-a", node_mass, arc_flow
        )
        assert patterns == []
        assert lost == pytest.approx(1.0)


class TestPatternStructures:
    def test_pattern_weight_positive(self):
        with pytest.raises(PlanError):
            EmbeddingPattern(node_map={}, link_paths={}, weight=0.0)

    def test_planned_capacity(self):
        pattern = EmbeddingPattern(node_map={}, link_paths={}, weight=0.25)
        assert pattern.planned_capacity(40.0) == pytest.approx(10.0)

    def test_class_plan_accounting(self):
        aggregate = AggregateRequest(app_index=0, ingress="a", demand=40.0)
        plan = ClassPlan(
            aggregate=aggregate,
            patterns=[
                EmbeddingPattern(node_map={}, link_paths={}, weight=0.5),
                EmbeddingPattern(node_map={}, link_paths={}, weight=0.25),
            ],
            rejected_fraction=0.25,
        )
        assert plan.allocated_fraction == pytest.approx(0.75)
        assert plan.guaranteed_demand() == pytest.approx(30.0)

    def test_empty_plan_properties(self):
        plan = empty_plan()
        assert plan.is_empty
        assert plan.num_patterns == 0
        assert plan.total_guaranteed_demand() == 0.0
        assert plan.mean_rejected_fraction() == 0.0
        assert plan.class_plan((0, "a")) is None


class TestComputePlan:
    def test_empty_aggregates_give_empty_plan(self, line_substrate, chain_app):
        assert compute_plan(line_substrate, [chain_app], []).is_empty

    def test_patterns_respect_capacity(self, chain_app):
        """Plan loads, fully deployed, must fit within substrate capacity."""
        substrate = make_line_substrate(node_capacity=500.0, link_capacity=100.0)
        aggregates = [
            AggregateRequest(app_index=0, ingress="edge-a", demand=60.0),
            AggregateRequest(app_index=0, ingress="edge-b", demand=60.0),
        ]
        plan = compute_plan(substrate, [chain_app], aggregates)
        efficiency = UniformEfficiency()
        node_load = {v: 0.0 for v in substrate.nodes}
        link_load = {l: 0.0 for l in substrate.links}
        for class_plan in plan.classes.values():
            demand = class_plan.aggregate.demand
            for pattern in class_plan.patterns:
                scale = pattern.weight * demand
                for vnf in chain_app.non_root_vnfs():
                    node_load[pattern.node_map[vnf.id]] += scale * vnf.size
                for vlink in chain_app.links:
                    for link in pattern.link_paths[vlink.key]:
                        link_load[link] += scale * vlink.size
        for v, load in node_load.items():
            assert load <= substrate.node_capacity(v) * (1 + 1e-6)
        for l, load in link_load.items():
            assert load <= substrate.link_capacity(l) * (1 + 1e-6)

    def test_quantiles_balance_rejections(self, chain_app):
        """With quantiles, competing classes share the shortage."""
        substrate = make_line_substrate(node_capacity=400.0, link_capacity=50.0)
        aggregates = [
            AggregateRequest(app_index=0, ingress="edge-a", demand=50.0),
            AggregateRequest(app_index=0, ingress="edge-b", demand=50.0),
        ]
        plan = compute_plan(
            substrate, [chain_app], aggregates,
            config=PlanVNEConfig(num_quantiles=10),
        )
        fractions = [
            plan.classes[key].rejected_fraction
            for key in sorted(plan.classes)
        ]
        assert len(fractions) == 2
        # Symmetric instance → both classes rejected roughly equally.
        assert abs(fractions[0] - fractions[1]) < 0.15
        assert all(f > 0.1 for f in fractions)

    def test_single_quantile_allows_starvation(self, chain_app):
        """P=1 prices all rejected traffic identically → unbalanced plans."""
        substrate = make_line_substrate(node_capacity=400.0, link_capacity=50.0)
        aggregates = [
            AggregateRequest(app_index=0, ingress="edge-a", demand=50.0),
            AggregateRequest(app_index=0, ingress="edge-b", demand=50.0),
        ]
        plan_p1 = compute_plan(
            substrate, [chain_app], aggregates,
            config=PlanVNEConfig(num_quantiles=1),
        )
        plan_p10 = compute_plan(
            substrate, [chain_app], aggregates,
            config=PlanVNEConfig(num_quantiles=10),
        )

        def spread(plan: Plan) -> float:
            fractions = [c.rejected_fraction for c in plan.classes.values()]
            return max(fractions) - min(fractions) if fractions else 0.0

        # The quantile LP may break ties either way at P=1; what must hold
        # is that P=10 is at least as balanced as P=1.
        assert spread(plan_p10) <= spread(plan_p1) + 1e-6
