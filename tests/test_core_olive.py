"""Behavioral tests for OLIVE (Algorithm 2) on a hand-built plan.

The scenario is small enough to verify every branch by hand: a 4-node line
substrate, one 2-VNF chain (node footprint 20/demand-unit, link footprint
5/demand-unit per virtual link), and a single-pattern plan guaranteeing 10
demand units of class (app 0, ingress edge-a) collocated on 'transport'.
"""

import pickle

import pytest

from repro.apps.application import ROOT_ID
from repro.core.olive import OliveAlgorithm
from repro.errors import SimulationError
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.plan.replanning import ReplanningOliveAlgorithm
from repro.plan.windowed import PlanSchedule, WindowedOliveAlgorithm
from repro.sim.session import SimulationSession
from repro.stats.aggregate import AggregateRequest
from repro.workload.request import Request
from tests.conftest import make_line_substrate, make_two_vnf_chain


def _plan_at_transport(demand: float = 10.0) -> Plan:
    aggregate = AggregateRequest(app_index=0, ingress="edge-a", demand=demand)
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


def _request(rid: int, demand: float, ingress: str = "edge-a", arrival: int = 0):
    return Request(
        arrival=arrival, id=rid, app_index=0, ingress=ingress,
        demand=demand, duration=5,
    )


@pytest.fixture
def olive(chain_app):
    substrate = make_line_substrate(node_capacity=1000.0, link_capacity=2000.0)
    # Give transport extra room so the plan's 200-unit guarantee plus
    # borrowed load can coexist in the preemption tests.
    return OliveAlgorithm(substrate, [chain_app], _plan_at_transport())


class TestPlannedPath:
    def test_full_fit_is_planned(self, olive):
        decision = olive.process(_request(1, demand=4.0))
        assert decision.accepted and decision.planned
        assert not decision.borrowed and not decision.via_greedy
        assert decision.embedding.node_map[1] == "transport"
        # Plan residual dropped by the request's demand.
        assert olive.plan_residual.guaranteed_remaining(
            (0, "edge-a")
        ) == pytest.approx(6.0)

    def test_substrate_residual_updated(self, olive):
        olive.process(_request(1, demand=4.0))
        assert olive.residual.nodes["transport"] == pytest.approx(
            3000.0 - 80.0
        )
        assert olive.residual.links[("edge-a", "transport")] == pytest.approx(
            2000.0 - 20.0
        )

    def test_release_restores_both_residuals(self, olive):
        request = _request(1, demand=4.0)
        olive.process(request)
        olive.release(request)
        assert olive.residual.nodes["transport"] == pytest.approx(3000.0)
        assert olive.plan_residual.guaranteed_remaining(
            (0, "edge-a")
        ) == pytest.approx(10.0)

    def test_release_of_unknown_request_is_noop(self, olive):
        olive.release(_request(99, demand=1.0))  # never processed

    def test_double_process_raises(self, olive):
        request = _request(1, demand=1.0)
        olive.process(request)
        with pytest.raises(SimulationError, match="twice"):
            olive.process(request)


class TestBorrowedPath:
    def test_overflow_borrows_along_pattern(self, olive):
        olive.process(_request(1, demand=8.0))  # planned, residual 2 left
        decision = olive.process(_request(2, demand=5.0))  # > residual 2
        assert decision.accepted and decision.borrowed
        assert not decision.planned
        # Borrowed allocations follow the pattern's mapping...
        assert decision.embedding.node_map[1] == "transport"
        # ...but never draw down the plan residual.
        assert olive.plan_residual.guaranteed_remaining(
            (0, "edge-a")
        ) == pytest.approx(2.0)

    def test_unplanned_class_goes_greedy(self, olive):
        decision = olive.process(_request(3, demand=2.0, ingress="edge-b"))
        assert decision.accepted and decision.via_greedy
        assert not decision.planned and not decision.borrowed


class TestPreemption:
    def _fill_transport_with_borrowers(self, olive, count: int):
        """Force greedy allocations onto 'transport' and fill it."""
        olive.residual.nodes["core"] = 0.0
        olive.residual.nodes["edge-a"] = 0.0
        olive.residual.nodes["edge-b"] = 0.0
        for i in range(count):
            decision = olive.process(
                _request(100 + i, demand=10.0, ingress="edge-b")
            )
            assert decision.accepted and decision.via_greedy
        return olive

    def test_planned_request_preempts_borrowers(self, olive):
        # 15 greedy requests × 200 load fill transport (3000) completely.
        self._fill_transport_with_borrowers(olive, 15)
        assert olive.residual.nodes["transport"] == pytest.approx(0.0)
        decision = olive.process(_request(1, demand=4.0))
        assert decision.accepted and decision.planned
        assert len(decision.preempted) == 1
        preempted_id = decision.preempted[0].id
        assert preempted_id not in olive.active
        # The preempted borrower's capacity was recycled: 200 freed, 80 used.
        assert olive.residual.nodes["transport"] == pytest.approx(120.0)

    def test_preemption_disabled_falls_to_rejection(self, chain_app):
        substrate = make_line_substrate(node_capacity=1000.0, link_capacity=2000.0)
        olive = OliveAlgorithm(
            substrate, [chain_app], _plan_at_transport(),
            enable_preemption=False,
        )
        TestPreemption._fill_transport_with_borrowers(self, olive, 15)
        decision = olive.process(_request(1, demand=4.0))
        # Without preemption the planned embedding is dropped; greedy finds
        # no capacity anywhere (everything zeroed or full) → reject.
        assert not decision.accepted
        assert decision.preempted == ()

    def test_planned_allocations_are_never_preempted(self, olive):
        planned = olive.process(_request(1, demand=10.0))  # full guarantee
        assert planned.planned
        self._fill_transport_with_borrowers(olive, 14)  # 2800 of 2800 left
        # A new planned request cannot fit its pattern (residual 0) and
        # borrows; nothing should ever preempt request 1.
        decision = olive.process(_request(2, demand=4.0))
        assert 1 in olive.active
        if decision.preempted:
            assert all(r.id != 1 for r in decision.preempted)

    def test_insufficient_preemptable_capacity_rejects(self, chain_app):
        substrate = make_line_substrate(node_capacity=1000.0, link_capacity=2000.0)
        olive = OliveAlgorithm(substrate, [chain_app], _plan_at_transport(demand=200.0))
        # One greedy borrower (200 load), then zero out the rest of
        # transport so even preempting it cannot cover a 220-unit shortfall.
        olive.residual.nodes["core"] = 0.0
        olive.residual.nodes["edge-a"] = 0.0
        olive.residual.nodes["edge-b"] = 0.0
        borrowed = olive.process(_request(50, demand=10.0, ingress="edge-b"))
        assert borrowed.accepted
        olive.residual.nodes["transport"] = 50.0
        # Needs 300 on transport; 50 residual + 200 preemptable < 300.
        decision = olive.process(_request(1, demand=15.0))
        assert not decision.accepted
        # The borrower survives a failed preemption attempt.
        assert 50 in olive.active


def _windowed(substrate, app):
    schedule = PlanSchedule(
        starts=[0, 3], plans=[_plan_at_transport(), _plan_at_transport()]
    )
    return WindowedOliveAlgorithm(substrate, [app], schedule)


def _replanning(substrate, app):
    return ReplanningOliveAlgorithm(
        substrate, [app], interval=3, window=3,
        seed_plan=_plan_at_transport(),
    )


class TestCheckpoint:
    def test_an_allocation_is_pickled_once(self, olive):
        """Pickling twice reuses the first pickling's bytes for every
        allocation still active, in ``active`` order; a released id's
        bytes are dropped, a new id's are added."""
        for rid in (1, 2, 3):
            olive.process(_request(rid, demand=2.0))
        first = olive.__getstate__()["active"]
        assert [pickle.loads(row)[0].id for row, _, _ in first] == [1, 2, 3]

        olive.release(_request(2, demand=2.0))
        olive.process(_request(4, demand=2.0))
        second = olive.__getstate__()["active"]
        assert [pickle.loads(row)[0].id for row, _, _ in second] == [1, 3, 4]
        assert second[0][0] is first[0][0] and second[1][0] is first[2][0]
        assert [a.sealed for a in olive.active.values()] == [
            row for row, _, _ in second
        ]

        restored = pickle.loads(pickle.dumps(olive))
        assert restored.active == olive.active
        assert list(restored.active) == [1, 3, 4]
        assert restored.active_demand() == olive.active_demand()
        again = restored.__getstate__()["active"]
        assert [row for row, _, _ in again] == [row for row, _, _ in second]

    @pytest.mark.parametrize(
        "make", [_windowed, _replanning], ids=["OLIVE-W", "OLIVE-RE"]
    )
    def test_switch_plan_after_a_checkpoint_is_checkpointed(
        self, chain_app, make
    ):
        """``switch_plan`` rewrites ``planned`` / ``pattern_index`` on
        allocations whose bytes were cached by an earlier checkpoint;
        the next checkpoint carries the post-switch values."""
        substrate = make_line_substrate(
            node_capacity=1000.0, link_capacity=2000.0
        )
        requests = [
            Request(arrival=arrival, id=rid, app_index=0, ingress="edge-a",
                    demand=2.0, duration=8)
            for rid, arrival in enumerate([0, 0, 1, 2, 3, 3, 4, 5])
        ]
        session = SimulationSession(make(substrate, chain_app), requests, 8)
        algorithm = session.algorithm
        session.run_until(3)
        session.snapshot()
        early = [rid for rid, a in algorithm.active.items() if a.planned]
        assert early
        session.step()  # slot 3 switches the plan
        assert not any(algorithm.active[rid].planned for rid in early)

        resumed = SimulationSession.restore(session.snapshot())
        assert resumed.algorithm.active == algorithm.active
        for rid in early:
            allocation = resumed.algorithm.active[rid]
            assert not allocation.planned and allocation.pattern_index is None
        assert resumed.run().decisions == session.run().decisions
        assert (
            resumed.algorithm.plan_residual.residual
            == algorithm.plan_residual.residual
        )


class TestIntrospection:
    def test_active_demand_and_cost_track_allocations(self, olive):
        olive.process(_request(1, demand=4.0))
        olive.process(_request(2, demand=2.0))
        assert olive.active_demand() == pytest.approx(6.0)
        # Planned pattern: 20 load/unit on transport (cost 10) + 5 load/unit
        # on one link (cost 1) → 205/unit.
        assert olive.active_cost_per_slot() == pytest.approx(6 * 205.0)

    def test_quickg_name_for_empty_plan(self, chain_app):
        substrate = make_line_substrate()
        algorithm = OliveAlgorithm(substrate, [chain_app], Plan())
        assert algorithm.name == "QUICKG"
        named = OliveAlgorithm(substrate, [chain_app], Plan(), name="X")
        assert named.name == "X"
