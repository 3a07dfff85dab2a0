"""Behavioral tests for OLIVE (Algorithm 2) on a hand-built plan.

The scenario is small enough to verify every branch by hand: a 4-node line
substrate, one 2-VNF chain (node footprint 20/demand-unit, link footprint
5/demand-unit per virtual link), and a single-pattern plan guaranteeing 10
demand units of class (app 0, ingress edge-a) collocated on 'transport'.
"""

import pickle
from dataclasses import replace

import pytest

from repro.api import resolve_events
from repro.apps.application import ROOT_ID
from repro.core.embedding import ElementLoads
from repro.core.olive import OliveAlgorithm
from repro.core.residual import EPSILON
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario, make_algorithm
from repro.plan.pattern import ClassPlan, EmbeddingPattern, Plan
from repro.plan.replanning import ReplanningOliveAlgorithm
from repro.plan.windowed import PlanSchedule, WindowedOliveAlgorithm
from repro.sim.session import SimulationSession
from repro.stats.aggregate import AggregateRequest
from repro.workload.request import Request
from tests.conftest import (
    make_line_substrate,
    make_two_vnf_chain,
    residual_of_link,
    residual_of_node,
    set_link_residual,
    set_node_residual,
)


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


def line_olive(chain_app) -> OliveAlgorithm:
    substrate = make_line_substrate(node_capacity=1000.0, link_capacity=2000.0)
    # Give transport extra room so the plan's 200-unit guarantee plus
    # borrowed load can coexist in the preemption tests.
    return OliveAlgorithm(substrate, [chain_app], _plan_at_transport())


@pytest.fixture
def olive(chain_app):
    return line_olive(chain_app)


def transport_borrowers(olive, count: int = 15, duration: int = 5):
    """``count`` requests (ids 100…) that can only go greedy onto
    'transport', 200 load each: 15 fill the fixture's 3000 completely,
    so the next planned request has to preempt."""
    set_node_residual(olive.residual, "core", 0.0)
    set_node_residual(olive.residual, "edge-a", 0.0)
    set_node_residual(olive.residual, "edge-b", 0.0)
    return [
        Request(arrival=0, id=100 + i, app_index=0, ingress="edge-b",
                demand=10.0, duration=duration)
        for i in range(count)
    ]


def olive_full_of_borrowers(olive, count: int = 15) -> None:
    for request in transport_borrowers(olive, count):
        decision = olive.process(request)
        assert decision.accepted and decision.via_greedy


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
        assert residual_of_node(olive.residual, "transport") == pytest.approx(
            3000.0 - 80.0
        )
        link = ("edge-a", "transport")
        assert residual_of_link(olive.residual, link) == pytest.approx(
            2000.0 - 20.0
        )

    def test_release_restores_both_residuals(self, olive):
        request = _request(1, demand=4.0)
        olive.process(request)
        olive.release(request)
        assert residual_of_node(olive.residual, "transport") == (
            pytest.approx(3000.0)
        )
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
    def test_planned_request_preempts_borrowers(self, olive):
        # 15 greedy requests × 200 load fill transport (3000) completely.
        olive_full_of_borrowers(olive)
        assert residual_of_node(olive.residual, "transport") == (
            pytest.approx(0.0)
        )
        decision = olive.process(_request(1, demand=4.0))
        assert decision.accepted and decision.planned
        assert len(decision.preempted) == 1
        preempted_id = decision.preempted[0].id
        assert preempted_id not in olive.active
        # The preempted borrower's capacity was recycled: 200 freed, 80 used.
        assert residual_of_node(olive.residual, "transport") == (
            pytest.approx(120.0)
        )

    def test_preemption_disabled_falls_to_rejection(self, chain_app):
        substrate = make_line_substrate(node_capacity=1000.0, link_capacity=2000.0)
        olive = OliveAlgorithm(
            substrate, [chain_app], _plan_at_transport(),
            enable_preemption=False,
        )
        olive_full_of_borrowers(olive)
        decision = olive.process(_request(1, demand=4.0))
        # Without preemption the planned embedding is dropped; greedy finds
        # no capacity anywhere (everything zeroed or full) → reject.
        assert not decision.accepted
        assert decision.preempted == ()

    def test_planned_allocations_are_never_preempted(self, olive):
        planned = olive.process(_request(1, demand=10.0))  # full guarantee
        assert planned.planned
        olive_full_of_borrowers(olive, 14)  # 2800 of 2800 left
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
        set_node_residual(olive.residual, "core", 0.0)
        set_node_residual(olive.residual, "edge-a", 0.0)
        set_node_residual(olive.residual, "edge-b", 0.0)
        borrowed = olive.process(_request(50, demand=10.0, ingress="edge-b"))
        assert borrowed.accepted
        set_node_residual(olive.residual, "transport", 50.0)
        # Needs 300 on transport; 50 residual + 200 preemptable < 300.
        decision = olive.process(_request(1, demand=15.0))
        assert not decision.accepted
        # The borrower survives a failed preemption attempt.
        assert 50 in olive.active


    def test_preempt_never_walks_the_active_table(self, chain_app):
        """A count guard, no timing: with 2 000 planned rows and 10
        borrowed ones, PREEMPT finds its victim without iterating
        ``active`` (membership, the commit's store and the eviction's
        ``pop`` by id are keyed, and allowed), and neither do the two
        per-slot sums."""

        class Unwalkable(dict):
            def _refuse(self, *args):
                raise AssertionError("PREEMPT walked the active table")

            values = items = keys = __iter__ = _refuse

        substrate = make_line_substrate(
            node_capacity=1e6, link_capacity=1e7
        )
        olive = OliveAlgorithm(
            substrate, [chain_app], _plan_at_transport(demand=1e4)
        )
        for rid in range(2000):
            assert olive.process(_request(1000 + rid, demand=1.0)).planned
        olive_full_of_borrowers(olive, 10)
        set_node_residual(olive.residual, "transport", 0.0)
        assert len(olive.active) == 2010
        assert sum(not a.planned for a in olive.active.values()) == 10

        olive.active = Unwalkable(olive.active)
        decision = olive.process(_request(1, demand=4.0))
        assert decision.planned
        assert [r.id for r in decision.preempted] == [100]
        assert 100 not in olive.active and 1 in olive.active
        demand = cost = 0.0
        for row in dict.values(olive.active):  # around the guard
            demand += row.request.demand
            cost += row.cost_per_slot
        assert olive.active_demand() == demand
        assert olive.active_cost_per_slot() == cost
        with pytest.raises(AssertionError, match="walked"):
            list(olive.active_loads())  # the guard does bite a walk

    def test_tied_victims_come_in_allocation_order(self, chain_app):
        """The element index yields the newer borrower first (it loads
        the short node, the older one the short link); both contribute
        exactly 4.0, so only the allocation order the twin's walk has
        decides which is evicted first."""
        olive = OliveAlgorithm(
            make_line_substrate(), [chain_app], _plan_at_transport()
        )
        link = ("core", "transport")
        older = ElementLoads(links={link: 4.0})
        newer = ElementLoads(nodes={"core": 4.0})
        olive._commit(_request(1, demand=1.0), None, older)
        olive._commit(_request(2, demand=1.0), None, newer)
        set_node_residual(olive.residual, "core", 0.0)
        set_link_residual(olive.residual, link, 0.0)
        need = ElementLoads(nodes={"core": 4.0}, links={link: 4.0})
        assert reference_victims(olive, need) == [1, 2]
        assert [r.id for r in olive._preempt_for(need)] == [1, 2]


def reference_victims(algorithm, loads) -> list[int] | None:
    """PREEMPT's victim ids by the full walk the index replaced, kept
    verbatim as a plain-loop twin: every active row is read, every load
    of every non-planned row is summed, all of them are sorted. Evicts
    nothing."""
    shortfall = algorithm.residual.shortfall(loads)
    if not shortfall.nodes and not shortfall.links:
        return []
    candidates = [a for a in algorithm.active.values() if not a.planned]

    available_nodes: dict = {}
    available_links: dict = {}
    for allocation in candidates:
        for node, load in allocation.loads.nodes.items():
            available_nodes[node] = available_nodes.get(node, 0.0) + load
        for link, load in allocation.loads.links.items():
            available_links[link] = available_links.get(link, 0.0) + load
    for node, need in shortfall.nodes.items():
        if available_nodes.get(node, 0.0) + EPSILON < need:
            return None
    for link, need in shortfall.links.items():
        if available_links.get(link, 0.0) + EPSILON < need:
            return None

    remaining_nodes = dict(shortfall.nodes)
    remaining_links = dict(shortfall.links)

    def contribution(allocation) -> float:
        total = 0.0
        for node, load in allocation.loads.nodes.items():
            if node in remaining_nodes:
                total += min(load, remaining_nodes[node])
        for link, load in allocation.loads.links.items():
            if link in remaining_links:
                total += min(load, remaining_links[link])
        return total

    chosen = []
    for allocation in sorted(candidates, key=contribution, reverse=True):
        if not remaining_nodes and not remaining_links:
            break
        if contribution(allocation) <= 0:
            continue
        chosen.append(allocation)
        for node, load in allocation.loads.nodes.items():
            if node in remaining_nodes:
                remaining_nodes[node] -= load
                if remaining_nodes[node] <= EPSILON:
                    del remaining_nodes[node]
        for link, load in allocation.loads.links.items():
            if link in remaining_links:
                remaining_links[link] -= load
                if remaining_links[link] <= EPSILON:
                    del remaining_links[link]
    if remaining_nodes or remaining_links:
        return None
    return [allocation.request.id for allocation in chosen]


class TestPreemptTwin:
    """Every real PREEMPT of three runs picks the twin's victims, in
    order (the twin runs first, on the untouched ledger)."""

    @pytest.fixture(scope="class")
    def overloaded(self):
        return build_scenario(ExperimentConfig.test(utilization=1.4), seed=0)

    @pytest.fixture
    def calls(self, monkeypatch):
        """``(algorithm, victims)`` of each PREEMPT call, checked against
        the twin as it happens."""
        real = OliveAlgorithm._preempt_for
        calls = []

        def checked(algorithm, loads):
            expected = reference_victims(algorithm, loads)
            freed = real(algorithm, loads)
            victims = None if freed is None else [r.id for r in freed]
            assert victims == expected
            calls.append((algorithm, victims))
            return freed

        monkeypatch.setattr(OliveAlgorithm, "_preempt_for", checked)
        return calls

    @staticmethod
    def _session(scenario):
        # Blackout cuts capacity under the plan, so some planned fits
        # are short of more than the borrowers hold: PREEMPT says None.
        return SimulationSession(
            make_algorithm("OLIVE", scenario),
            scenario.online_requests(),
            scenario.config.online_slots,
            events=resolve_events("blackout", scenario, 0, "reroute"),
        )

    def test_overloaded_session(self, overloaded, calls):
        self._session(overloaded).run()
        victims = [v for _, v in calls]
        assert len(victims) >= 200                                  # 1001
        assert sum(v is None for v in victims) >= 1                 # 704
        assert sum(v is not None and len(v) >= 2 for v in victims) >= 1  # 34

    def test_across_switch_plan(self, overloaded, calls, monkeypatch):
        """OLIVE-W: a switch downgrades the planned rows where they
        stand, so they sit among the borrowed rows in ``active`` order —
        not behind them."""
        switch = WindowedOliveAlgorithm.switch_plan
        downgraded: set[int] = set()
        switches = []  # (PREEMPT calls so far, rows interleaved?)

        def spying(algorithm, plan):
            rows = list(algorithm.active.values())
            planned = [a.planned for a in rows]
            # A borrowed row behind a planned one: appending the
            # downgraded rows to the index would reorder these two.
            switches.append((
                len(calls),
                True in planned and False in planned[planned.index(True):],
            ))
            downgraded.update(a.request.id for a in rows if a.planned)
            switch(algorithm, plan)

        monkeypatch.setattr(WindowedOliveAlgorithm, "switch_plan", spying)
        plan = overloaded.plan
        algorithm = WindowedOliveAlgorithm(
            overloaded.substrate, overloaded.apps,
            PlanSchedule(starts=[0, 6], plans=[plan, replace(plan)]),
            efficiency=overloaded.efficiency,
        )
        SimulationSession(
            algorithm, overloaded.online_requests(),
            overloaded.config.online_slots,
        ).run_until(14)
        (before, interleaved), = switches
        assert interleaved
        after = calls[before:]
        victims = [v for _, v in after if v]
        assert len(after) >= 200                                    # 315
        assert sum(len(v) >= 2 for v in victims) >= 1               # 28
        assert sum(not downgraded.isdisjoint(v) for v in victims) >= 1  # 257

    def test_restored_mid_run(self, overloaded, calls):
        session = self._session(overloaded)
        session.run_until(overloaded.config.online_slots // 2)
        before = len(calls)
        resumed = SimulationSession.restore(session.snapshot())
        resumed.run()
        after = [v for a, v in calls[before:] if a is resumed.algorithm]
        assert len(after) == len(calls) - before >= 200             # 356
        assert sum(v is None for v in after) >= 1                   # 134
        assert sum(v is not None and len(v) >= 2 for v in after) >= 1  # 24


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
