"""Tests for the extensions: plan validation and time-windowed plans."""

import pytest

from repro.apps.application import ROOT_ID
from repro.errors import PlanError
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.plan.validate import validate_plan
from repro.plan.windowed import (
    PlanSchedule,
    WindowedOliveAlgorithm,
    compute_windowed_plans,
)
from repro.sim.engine import simulate
from repro.sim.metrics import rejection_rate
from repro.stats.aggregate import AggregateRequest
from repro.workload.request import Request
from tests.conftest import make_line_substrate


def _class_plan(ingress="edge-a", demand=10.0, host="transport", weight=1.0,
                path=(("edge-a", "transport"),)):
    aggregate = AggregateRequest(app_index=0, ingress=ingress, demand=demand)
    pattern = EmbeddingPattern(
        node_map={ROOT_ID: ingress, 1: host, 2: host},
        link_paths={(0, 1): tuple(path), (1, 2): ()},
        weight=weight,
    )
    return ClassPlan(aggregate=aggregate, patterns=[pattern],
                     rejected_fraction=1.0 - weight)


class TestValidatePlan:
    def test_valid_plan_passes(self, line_substrate, chain_app):
        plan = Plan(classes={(0, "edge-a"): _class_plan()})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert result.ok
        # 10 units × 2 VNFs × β10 = 200 planned on transport.
        assert result.node_load["transport"] == pytest.approx(200.0)

    def test_root_not_at_ingress_detected(self, line_substrate, chain_app):
        class_plan = _class_plan()
        class_plan.patterns[0].node_map[ROOT_ID] = "edge-b"
        plan = Plan(classes={(0, "edge-a"): class_plan})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert not result.ok
        assert any("root not pinned" in v for v in result.violations)

    def test_discontiguous_path_detected(self, line_substrate, chain_app):
        class_plan = _class_plan(path=(("core", "edge-b"),))
        plan = Plan(classes={(0, "edge-a"): class_plan})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert any("discontiguous" in v for v in result.violations)

    def test_wrong_path_endpoint_detected(self, line_substrate, chain_app):
        # Path continues past the host to 'core'.
        class_plan = _class_plan(
            path=(("edge-a", "transport"), ("core", "transport"))
        )
        plan = Plan(classes={(0, "edge-a"): class_plan})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert any("ends at" in v for v in result.violations)

    def test_capacity_overrun_detected(self, line_substrate, chain_app):
        # 1000 demand units × 20 β = 20000 ≫ transport capacity 3000.
        plan = Plan(classes={(0, "edge-a"): _class_plan(demand=1000.0)})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert any("exceeds" in v for v in result.violations)

    def test_allocated_fraction_above_one_detected(self, line_substrate, chain_app):
        class_plan = _class_plan(weight=0.9)
        class_plan.patterns.append(
            EmbeddingPattern(
                node_map=dict(class_plan.patterns[0].node_map),
                link_paths=dict(class_plan.patterns[0].link_paths),
                weight=0.5,
            )
        )
        plan = Plan(classes={(0, "edge-a"): class_plan})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert any("exceeds 1" in v for v in result.violations)

    def test_unknown_ingress_detected(self, line_substrate, chain_app):
        plan = Plan(classes={(0, "mars"): _class_plan(ingress="mars")})
        result = validate_plan(plan, line_substrate, [chain_app])
        assert any("unknown ingress" in v for v in result.violations)

    def test_computed_plan_validates(self, test_scenario):
        result = validate_plan(
            test_scenario.plan,
            test_scenario.substrate,
            test_scenario.apps,
            test_scenario.efficiency,
        )
        assert result.ok, result.violations[:5]


class TestPlanSchedule:
    def test_lookup(self):
        plans = [Plan(), Plan(), Plan()]
        schedule = PlanSchedule(starts=[0, 10, 20], plans=plans)
        assert schedule.plan_for_slot(0) is plans[0]
        assert schedule.plan_for_slot(9) is plans[0]
        assert schedule.plan_for_slot(10) is plans[1]
        assert schedule.plan_for_slot(99) is plans[2]

    def test_validation(self):
        with pytest.raises(PlanError):
            PlanSchedule(starts=[0], plans=[])
        with pytest.raises(PlanError):
            PlanSchedule(starts=[5], plans=[Plan()])
        with pytest.raises(PlanError):
            PlanSchedule(starts=[0, 0], plans=[Plan(), Plan()])


class TestWindowedPlans:
    def test_windows_cover_online_horizon(self, test_scenario):
        config = test_scenario.config
        schedule = compute_windowed_plans(
            test_scenario.substrate,
            test_scenario.apps,
            test_scenario.trace.history_requests(),
            config.history_slots,
            config.online_slots,
            num_windows=3,
        )
        assert schedule.num_windows == 3
        assert schedule.starts[0] == 0
        assert schedule.starts[-1] < config.online_slots
        for plan in schedule.plans:
            assert not plan.is_empty

    def test_rejects_bad_window_counts(self, test_scenario):
        config = test_scenario.config
        with pytest.raises(PlanError):
            compute_windowed_plans(
                test_scenario.substrate, test_scenario.apps, [],
                config.history_slots, config.online_slots, num_windows=0,
            )

    def test_more_windows_than_online_slots_refused_before_solving(
        self, test_scenario, monkeypatch
    ):
        solves = []
        monkeypatch.setattr(
            "repro.plan.api.solve_lp", lambda program: solves.append(program)
        )
        config = test_scenario.config
        with pytest.raises(PlanError, match="online_slots=3"):
            compute_windowed_plans(
                test_scenario.substrate,
                test_scenario.apps,
                test_scenario.trace.history_requests(),
                config.history_slots,
                online_slots=3,
                num_windows=5,
            )
        assert solves == []

    def test_windowed_olive_runs_and_switches(self, test_scenario):
        config = test_scenario.config
        schedule = compute_windowed_plans(
            test_scenario.substrate,
            test_scenario.apps,
            test_scenario.trace.history_requests(),
            config.history_slots,
            config.online_slots,
            num_windows=2,
        )
        algorithm = WindowedOliveAlgorithm(
            test_scenario.substrate,
            test_scenario.apps,
            schedule,
            test_scenario.efficiency,
        )
        result = simulate(
            algorithm, test_scenario.online_requests(), config.online_slots
        )
        assert algorithm.plan is schedule.plans[-1]  # switched
        assert 0.0 <= rejection_rate(result) < 1.0


class TestCyclicSchedule:
    def test_cyclic_lookup_wraps(self):
        plans = [Plan(), Plan()]
        schedule = PlanSchedule(starts=[0, 10], plans=plans, period=20)
        assert schedule.plan_for_slot(5) is plans[0]
        assert schedule.plan_for_slot(15) is plans[1]
        assert schedule.plan_for_slot(25) is plans[0]  # wrapped
        assert schedule.plan_for_slot(35) is plans[1]

    def test_period_must_cover_windows(self):
        with pytest.raises(PlanError):
            PlanSchedule(starts=[0, 10], plans=[Plan(), Plan()], period=10)

    def test_phase_sliced_windows_capture_diurnal_structure(
        self, line_substrate, chain_app
    ):
        """Peak-phase windows must plan for more demand than trough ones."""
        from repro.workload.diurnal import generate_diurnal_trace
        from repro.workload.trace import TraceConfig
        from repro.utils.rng import make_rng

        config = TraceConfig(
            history_slots=240, online_slots=30, arrivals_per_node=6.0,
            demand_mean=1.0, demand_std=0.2,
        )
        trace = generate_diurnal_trace(
            line_substrate, [chain_app], config, make_rng(0),
            amplitude=0.8, period=80,
        )
        schedule = compute_windowed_plans(
            line_substrate, [chain_app], trace.history_requests(),
            config.history_slots, config.online_slots,
            num_windows=2, cycle_period=80,
        )
        assert schedule.period == 80
        guarantees = [p.total_guaranteed_demand() for p in schedule.plans]
        # sin peaks in the first half-cycle, troughs in the second.
        assert guarantees[0] > 1.5 * guarantees[1]

    def test_cycle_period_validation(self, line_substrate, chain_app):
        with pytest.raises(PlanError, match="cycle period"):
            compute_windowed_plans(
                line_substrate, [chain_app], [], 100, 20,
                num_windows=4, cycle_period=2,
            )


class TestSwitchPlanSemantics:
    def test_planned_allocations_downgrade_on_switch(self, chain_app):
        from repro.core.olive import OliveAlgorithm

        substrate = make_line_substrate()
        plan = Plan(classes={(0, "edge-a"): _class_plan()})
        olive = OliveAlgorithm(substrate, [chain_app], plan)
        request = Request(
            arrival=0, id=1, app_index=0, ingress="edge-a",
            demand=2.0, duration=5,
        )
        decision = olive.process(request)
        assert decision.planned
        olive.switch_plan(Plan(classes={(0, "edge-a"): _class_plan()}))
        # The active allocation survives but is now borrowed/preemptible.
        assert not olive.active[1].planned
        # New plan's residual is untouched by the old allocation...
        assert olive.plan_residual.guaranteed_remaining(
            (0, "edge-a")
        ) == pytest.approx(10.0)
        # ...and releasing the request must not corrupt it either.
        olive.release(request)
        assert olive.plan_residual.guaranteed_remaining(
            (0, "edge-a")
        ) == pytest.approx(10.0)

    def test_borrowing_can_be_disabled(self, chain_app):
        from repro.core.olive import OliveAlgorithm

        substrate = make_line_substrate()
        plan = Plan(classes={(0, "edge-a"): _class_plan(demand=5.0)})
        olive = OliveAlgorithm(
            substrate, [chain_app], plan, enable_borrowing=False
        )
        first = olive.process(
            Request(arrival=0, id=1, app_index=0, ingress="edge-a",
                    demand=4.0, duration=5)
        )
        assert first.planned
        # Pattern residual is 1 < 3: full fit impossible; with borrowing
        # off the request must go greedy instead of borrowed.
        second = olive.process(
            Request(arrival=0, id=2, app_index=0, ingress="edge-a",
                    demand=3.0, duration=5)
        )
        assert second.accepted
        assert not second.borrowed
        assert second.via_greedy
