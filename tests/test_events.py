"""Unit tests for the dynamic-event subsystem (repro.scenarios.events).

Covers the residual-state capacity mutations, schedule assembly and
workload events, the preempt/reroute disruption policies on a
hand-computable substrate, SLOTOFF's substrate-override handling, the
registered profiles, and the ``Experiment.events`` facade hook. The
fast-vs-reference bit-identity of event runs lives in
``test_event_oracle.py``; metamorphic properties in
``test_metamorphic.py``.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment, resolve_events, run_single
from repro.baselines.quickg import make_quickg
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.core.residual import ResidualState
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.registry import event_profile_registry
from repro.scenarios.events import (
    CapacityDegradation,
    EventSchedule,
    FlashCrowd,
    IngressMigration,
    LinkFailure,
    LinkRecovery,
    NodeDrain,
    NodeRestore,
    capacity_invariant_gap,
)
from repro.sim.engine import simulate
from repro.sim.metrics import availability, disruption_rate, mean_recovery_time
from repro.utils.rng import make_rng
from repro.workload.request import Request
from tests.conftest import (
    make_line_substrate,
    make_two_vnf_chain,
    residual_of_link,
    residual_of_node,
    set_link_residual,
    set_node_residual,
)


class TestResidualCapacityMutation:
    def test_nominal_capacities_survive_mutation(self, line_substrate):
        residual = ResidualState(line_substrate)
        residual.set_node_capacity("core", 10.0)
        residual.set_link_capacity(("edge-a", "transport"), 1.0)
        assert residual.nominal_node_capacity("core") == 9000.0
        assert residual.nominal_link_capacity(("edge-a", "transport")) == 500.0
        residual.set_node_capacity(
            "core", residual.nominal_node_capacity("core")
        )
        assert residual_of_node(residual, "core") == 9000.0

    def test_link_capacity_cut_shifts_residual(self, line_substrate):
        residual = ResidualState(line_substrate)
        link = ("edge-a", "transport")
        set_link_residual(residual, link, 450.0)  # simulate 50 CU allocated
        assert residual.set_link_capacity(link, 100.0) is True
        assert residual_of_link(residual, link) == 50.0
        assert residual.link_capacity[residual.index.link_index[link]] == 100.0
        # Restoring goes through the nominal capacity helper.
        assert residual.set_link_capacity(
            link, residual.nominal_link_capacity(link)
        )
        assert residual_of_link(residual, link) == 450.0

    def test_node_capacity_cut_below_usage_goes_negative(self, line_substrate):
        residual = ResidualState(line_substrate)
        # simulate 8900 CU allocated
        set_node_residual(residual, "core", 100.0)
        residual.set_node_capacity("core", 1000.0)
        assert residual_of_node(residual, "core") == (
            pytest.approx(100.0 - 8000.0)
        )
        nodes, links = residual.overloaded_elements()
        assert nodes == ["core"] and links == []

    def test_noop_change_reports_false(self, line_substrate):
        residual = ResidualState(line_substrate)
        before = (list(residual.link_residual), list(residual.node_residual))
        assert residual.set_link_capacity(("edge-a", "transport"), 500.0) is False
        assert residual.set_node_capacity("core", 9000.0) is False
        assert (residual.link_residual, residual.node_residual) == before

    def test_unknown_element_raises(self, line_substrate):
        residual = ResidualState(line_substrate)
        with pytest.raises(KeyError):
            residual.set_node_capacity("nowhere", 1.0)


class TestEventSchedule:
    def test_events_sorted_by_slot_stably(self):
        schedule = EventSchedule(
            [
                LinkRecovery(slot=5, link=("a", "b")),
                LinkFailure(slot=2, link=("a", "b")),
                LinkFailure(slot=5, link=("c", "d")),
            ]
        )
        assert [e.slot for e in schedule.events] == [2, 5, 5]
        # Same-slot order preserves insertion order (recovery before the
        # second failure).
        assert isinstance(schedule.events[1], LinkRecovery)
        assert schedule.capacity_events_at(5) == schedule.events[1:]
        assert schedule.capacity_events_at(3) == ()

    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError, match="disruption policy"):
            EventSchedule([], policy="panic")

    def test_negative_slot_rejected(self):
        with pytest.raises(SimulationError, match="before slot 0"):
            EventSchedule([LinkFailure(slot=-1, link=("a", "b"))])

    def test_with_policy_copies(self):
        schedule = EventSchedule(
            [LinkFailure(slot=1, link=("a", "b"))], policy="preempt"
        )
        rerouting = schedule.with_policy("reroute")
        assert rerouting.policy == "reroute"
        assert schedule.policy == "preempt"
        assert rerouting.events == schedule.events

    def test_validate_rejects_unknown_elements(self, line_substrate):
        schedule = EventSchedule([LinkFailure(slot=1, link=("no", "pe"))])
        with pytest.raises(SimulationError, match="unknown link"):
            schedule.validate(line_substrate)
        # Recovery/drain events dereference the substrate for the nominal
        # capacity; the promised SimulationError (not a raw KeyError) must
        # surface for them too.
        for bad in (
            LinkRecovery(slot=1, link=("no", "pe")),
            NodeDrain(slot=1, node="moon", fraction=0.5),
            NodeRestore(slot=1, node="moon"),
            CapacityDegradation(slot=1, fraction=0.5, links=(("no", "pe"),)),
        ):
            with pytest.raises(SimulationError, match="unknown element"):
                EventSchedule([bad]).validate(line_substrate)
        schedule = EventSchedule(
            [IngressMigration(slot=1, source="edge-a", target="moon", until=5)]
        )
        with pytest.raises(SimulationError, match="unknown node"):
            schedule.validate(line_substrate)

    def test_validate_rejects_bad_flash_crowd_requests(self, line_substrate):
        bad_ingress = EventSchedule(
            [FlashCrowd(slot=1, requests=(
                Request(arrival=1, id=1, app_index=0, ingress="moon",
                        demand=1.0, duration=1),
            ))]
        )
        with pytest.raises(SimulationError, match="unknown node 'moon'"):
            bad_ingress.validate(line_substrate)
        bad_app = EventSchedule(
            [FlashCrowd(slot=1, requests=(
                Request(arrival=1, id=1, app_index=5, ingress="edge-a",
                        demand=1.0, duration=1),
            ))]
        )
        bad_app.validate(line_substrate)  # without num_apps: ingress only
        with pytest.raises(SimulationError, match="app_index 5"):
            bad_app.validate(line_substrate, num_apps=2)

    def test_session_rehomes_migrated_seed_arrivals(
        self, line_substrate, chain_app
    ):
        requests = [
            Request(arrival=t, id=t, app_index=0, ingress="edge-a",
                    demand=1.0, duration=2)
            for t in range(6)
        ]
        schedule = EventSchedule(
            [IngressMigration(slot=2, source="edge-a", target="edge-b",
                              until=4)]
        )
        decisions = simulate(
            make_quickg(line_substrate, [chain_app]), requests, 8,
            events=schedule,
        ).decisions
        assert [d.request.ingress for d in decisions] == [
            "edge-a", "edge-a", "edge-b", "edge-b", "edge-a", "edge-a"
        ]
        # Untouched fields survive the rewrite.
        assert [d.request.id for d in decisions] == [r.id for r in requests]

    def test_flash_crowd_is_decided_in_order_among_the_seed(
        self, line_substrate, chain_app
    ):
        base = [
            Request(arrival=arrival, id=rid, app_index=0, ingress="edge-a",
                    demand=1.0, duration=1)
            for arrival, rid in ((1, 5), (3, 1), (1, 1_000_000_001))
        ]
        extra = tuple(
            Request(arrival=arrival, id=rid, app_index=0, ingress="edge-b",
                    demand=2.0, duration=1)
            for arrival, rid in ((3, 0), (1, 1_000_000_000), (1, 2))
        )
        schedule = EventSchedule([FlashCrowd(slot=1, requests=extra)])
        decisions = simulate(
            make_quickg(line_substrate, [chain_app]), base, 5,
            events=schedule,
        ).decisions
        assert [(d.request.arrival, d.request.id) for d in decisions] == [
            (1, 2), (1, 5), (1, 1_000_000_000), (1, 1_000_000_001),
            (3, 0), (3, 1),
        ]

    def test_sessions_over_one_stream_see_one_perturbed_trace(
        self, line_substrate, chain_app
    ):
        """Each session applies the schedule as it schedules the stream;
        the caller's list is left as it was."""
        base = [
            Request(arrival=2, id=1, app_index=0, ingress="edge-a",
                    demand=1.0, duration=1)
        ]
        schedule = EventSchedule(
            [IngressMigration(slot=0, source="edge-a", target="edge-b",
                              until=9)]
        )
        first, second = (
            simulate(
                make_quickg(line_substrate, [chain_app]), base, 4,
                events=schedule,
            ).decisions
            for _ in range(2)
        )
        assert first == second
        assert first[0].request.ingress == "edge-b"
        assert base[0].ingress == "edge-a"

    def test_empty_schedule_is_empty(self):
        assert EventSchedule([]).is_empty
        assert not EventSchedule([NodeRestore(slot=0, node="x")]).is_empty


class TestComposeAndShift:
    """The scenario-composition operator (merge / shift / overlay)."""

    def test_compose_merges_and_sorts(self):
        drain = EventSchedule(
            [NodeDrain(slot=2, node="core", fraction=0.5),
             NodeRestore(slot=8, node="core")],
            name="drain",
        )
        flap = EventSchedule(
            [LinkFailure(slot=4, link=("a", "b")),
             LinkRecovery(slot=6, link=("a", "b"))],
            name="flap",
        )
        combined = drain.compose(flap)
        assert [e.slot for e in combined.events] == [2, 4, 6, 8]
        assert combined.name == "drain+flap"
        # Operands are untouched.
        assert len(drain) == 2 and len(flap) == 2

    def test_same_slot_ordering_is_operand_order(self):
        """fail+recover in one slot: composition order decides the outcome."""
        link = ("edge-a", "transport")
        fail = EventSchedule([LinkFailure(slot=3, link=link)])
        recover = EventSchedule([LinkRecovery(slot=3, link=link)])

        def final_capacity(schedule):
            residual = ResidualState(make_line_substrate())
            from repro.scenarios.events import apply_capacity_events

            apply_capacity_events(residual, schedule.capacity_events_at(3))
            return residual_of_link(residual, link)

        # fail → recover: atomically a no-op, link ends at nominal.
        assert final_capacity(fail.compose(recover)) == 500.0
        # recover → fail: the failure lands last, link ends down.
        assert final_capacity(recover.compose(fail)) == 0.0

    def test_compose_is_associative_in_events(self):
        a = EventSchedule([NodeDrain(slot=1, node="x", fraction=0.5)])
        b = EventSchedule([LinkFailure(slot=1, link=("a", "b"))])
        c = EventSchedule([NodeRestore(slot=1, node="x")])
        assert a.compose(b).compose(c).events == a.compose(b, c).events

    def test_compose_policy_conflict_fails_fast(self):
        preempting = EventSchedule(
            [LinkFailure(slot=1, link=("a", "b"))], policy="preempt"
        )
        rerouting = EventSchedule(
            [LinkFailure(slot=2, link=("a", "b"))], policy="reroute"
        )
        with pytest.raises(SimulationError, match="disagree on disruption"):
            preempting.compose(rerouting)
        resolved = preempting.compose(rerouting, policy="reroute")
        assert resolved.policy == "reroute"

    def test_shifted_moves_all_event_shapes(self):
        burst = Request(arrival=2, id=1_000_000_000, app_index=0,
                        ingress="edge-b", demand=1.0, duration=2)
        schedule = EventSchedule(
            [
                LinkFailure(slot=1, link=("a", "b")),
                FlashCrowd(slot=2, requests=(burst,)),
                IngressMigration(slot=3, source="edge-a", target="edge-b",
                                 until=6),
            ],
            name="mix",
        )
        moved = schedule.shifted(10)
        assert [e.slot for e in moved.events] == [11, 12, 13]
        crowd = moved.events[1]
        assert crowd.requests[0].arrival == 12
        assert crowd.requests[0].id == burst.id  # identity preserved
        migration = moved.events[2]
        assert migration.until == 16
        assert moved.name == "mix@+10"
        assert moved.policy == schedule.policy

    def test_shifted_zero_is_identity(self):
        schedule = EventSchedule([LinkFailure(slot=1, link=("a", "b"))])
        assert schedule.shifted(0) is schedule

    def test_shifted_rejects_landing_before_slot_zero(self):
        schedule = EventSchedule([LinkFailure(slot=1, link=("a", "b"))])
        assert schedule.shifted(-1).events[0].slot == 0
        with pytest.raises(SimulationError, match="before slot 0"):
            schedule.shifted(-2)

    def test_flash_crowd_during_drain_through_the_engine(self):
        """The motivating overlay: a flash crowd hits mid-maintenance."""
        substrate = make_line_substrate()
        apps = [make_two_vnf_chain()]
        drain = EventSchedule(
            [NodeDrain(slot=1, node="core", fraction=0.0),
             NodeRestore(slot=6, node="core")],
            name="maintenance",
        )
        crowd = EventSchedule(
            [FlashCrowd(slot=0, requests=(
                Request(arrival=2, id=1_000_000_000, app_index=0,
                        ingress="edge-a", demand=1.0, duration=2),
            ))],
            name="crowd",
        )
        composed = drain.compose(crowd.shifted(2))
        algorithm = make_quickg(substrate, apps)
        result = simulate(algorithm, [], 8, events=composed)
        assert result.num_events == 3
        # The injected request arrived (at the shifted slot 4) while the
        # core was drained — it must have been embedded off-core.
        decision = result.decisions[0]
        assert decision.request.arrival == 4
        assert decision.accepted
        assert "core" not in decision.embedding.node_map.values()

    def test_overlapping_degradations_on_one_link(self):
        """Each degradation sets fraction × *nominal* — they override, not
        stack, and the last same-slot event wins."""
        substrate = make_line_substrate()
        apps = [make_two_vnf_chain()]
        link = ("core", "transport")  # nominal 1500
        algorithm = make_quickg(substrate, apps)
        first = CapacityDegradation(slot=2, fraction=0.5, links=(link,))
        second = CapacityDegradation(slot=2, fraction=0.25, links=(link,))
        algorithm.apply_events(2, (first, second), "preempt")
        index = algorithm.residual.index.link_index[link]
        assert algorithm.residual.link_capacity[index] == 1500.0 * 0.25
        # A later re-degradation is also nominal-relative: 0.5 of 1500,
        # not 0.5 of the already-degraded 375.
        algorithm.apply_events(
            3,
            (CapacityDegradation(slot=3, fraction=0.5, links=(link,)),),
            "preempt",
        )
        assert algorithm.residual.link_capacity[index] == 750.0

    def test_recovery_without_failure_is_a_noop(self):
        """Restoring a healthy element changes nothing and disrupts
        nothing — no spurious disruption scan, no stranded requests."""
        substrate = make_line_substrate()
        apps = [make_two_vnf_chain()]
        algorithm = make_quickg(substrate, apps)
        request = Request(arrival=0, id=1, app_index=0, ingress="edge-a",
                          demand=1.0, duration=6)
        assert algorithm.process(request).accepted
        from repro.scenarios.events import apply_capacity_events

        events = (
            LinkRecovery(slot=2, link=("edge-a", "transport")),
            NodeRestore(slot=2, node="core"),
        )
        assert apply_capacity_events(algorithm.residual, events) is False
        dropped = algorithm.apply_events(2, events, "preempt")
        assert dropped == []
        assert request.id in algorithm.active
        assert capacity_invariant_gap(algorithm) == pytest.approx(0.0)


class TestDisruptionPolicies:
    """Hand-computable stranding on the 4-node line substrate."""

    def _embed_one(self, policy: str):
        substrate = make_line_substrate()
        apps = [make_two_vnf_chain()]  # node β=10 ×2, root link β=5
        algorithm = make_quickg(substrate, apps)
        request = Request(arrival=0, id=7, app_index=0, ingress="edge-a",
                          demand=1.0, duration=10)
        decision = algorithm.process(request)
        assert decision.accepted
        # Cheapest host is the core (cost 1/CU); the ingress path crosses
        # both line links with the root virtual link's load 5.
        assert decision.embedding.node_map[1] == "core"
        return substrate, algorithm, request

    def test_preempt_drops_stranded_request(self):
        substrate, algorithm, request = self._embed_one("preempt")
        events = (LinkFailure(slot=3, link=("edge-a", "transport")),)
        dropped = algorithm.apply_events(3, events, "preempt")
        assert dropped == [request]
        assert algorithm.active == {}
        # Allocation fully released: failed link residual settles at the
        # new (zero) capacity, and nothing is left stranded.
        link = ("edge-a", "transport")
        assert residual_of_link(algorithm.residual, link) == 0.0
        assert algorithm.residual.overloaded_elements() == ([], [])
        assert capacity_invariant_gap(algorithm) == pytest.approx(0.0)

    def test_reroute_reembeds_on_the_ingress(self):
        substrate, algorithm, request = self._embed_one("reroute")
        events = (LinkFailure(slot=3, link=("edge-a", "transport")),)
        dropped = algorithm.apply_events(3, events, "reroute")
        # The only path out of edge-a is down, but collocating on the
        # ingress itself needs no path — the reroute must find it.
        assert dropped == []
        allocation = algorithm.active[request.id]
        assert allocation.embedding.node_map[1] == "edge-a"
        assert capacity_invariant_gap(algorithm) == pytest.approx(0.0)

    def test_reroute_drops_when_nothing_fits(self):
        substrate, algorithm, request = self._embed_one("reroute")
        events = (
            LinkFailure(slot=3, link=("edge-a", "transport")),
            NodeDrain(slot=3, node="edge-a", fraction=0.0),
        )
        dropped = algorithm.apply_events(3, events, "reroute")
        assert dropped == [request]
        assert algorithm.active == {}

    def test_recovery_restores_nominal_capacity(self):
        substrate, algorithm, request = self._embed_one("preempt")
        link = ("edge-a", "transport")
        algorithm.apply_events(3, (LinkFailure(slot=3, link=link),), "preempt")
        dropped = algorithm.apply_events(
            5, (LinkRecovery(slot=5, link=link),), "preempt"
        )
        assert dropped == []
        assert residual_of_link(algorithm.residual, link) == 500.0

    def test_degradation_fraction_applies_to_nominal(self):
        substrate, algorithm, request = self._embed_one("preempt")
        link = ("core", "transport")  # nominal 1500, currently loaded 5
        events = (CapacityDegradation(slot=2, fraction=0.5, links=(link,)),)
        dropped = algorithm.apply_events(2, events, "preempt")
        assert dropped == []  # 750 still covers the 5 CU in flight
        assert algorithm.residual.link_capacity[
            algorithm.residual.index.link_index[link]
        ] == 750.0

    def test_repeated_failure_is_noop(self):
        substrate, algorithm, request = self._embed_one("preempt")
        link = ("edge-a", "transport")
        algorithm.apply_events(3, (LinkFailure(slot=3, link=link),), "preempt")
        dropped = algorithm.apply_events(
            4, (LinkFailure(slot=4, link=link),), "preempt"
        )
        assert dropped == []


class TestEngineIntegration:
    def test_capacity_events_need_algorithm_support(self, line_substrate):
        class Minimal:
            name = "MINIMAL"

            def release(self, request):
                pass

            def process(self, request):
                raise AssertionError("unreached")

            def active_demand(self):
                return 0.0

            def active_cost_per_slot(self):
                return 0.0

        schedule = EventSchedule(
            [LinkFailure(slot=0, link=("edge-a", "transport"))]
        )
        with pytest.raises(SimulationError, match="does not support"):
            simulate(Minimal(), [], 4, events=schedule)

    def test_workload_only_schedule_needs_no_support(self, line_substrate):
        """Flash crowds / migrations transform the trace, so even an
        algorithm without apply_events accepts them."""
        apps = [make_two_vnf_chain()]
        algorithm = make_quickg(line_substrate, apps)
        extra = (
            Request(arrival=1, id=1_000_000_000, app_index=0,
                    ingress="edge-b", demand=1.0, duration=2),
        )
        schedule = EventSchedule([FlashCrowd(slot=1, requests=extra)])
        result = simulate(algorithm, [], 4, events=schedule)
        assert result.num_requests == 1
        assert result.requested_demand[1] == 1.0
        # Workload events count into num_events even though they are
        # consumed before the slot loop.
        assert result.num_events == 1

    def test_engine_validates_schedule_against_substrate(self, line_substrate):
        """simulate() fails fast on a bad schedule — not mid-run KeyError."""
        apps = [make_two_vnf_chain()]
        algorithm = make_quickg(line_substrate, apps)
        schedule = EventSchedule([LinkFailure(slot=1, link=("no", "pe"))])
        with pytest.raises(SimulationError, match="unknown link"):
            simulate(algorithm, [], 4, events=schedule)

    def test_engine_rejects_events_beyond_horizon(self, line_substrate):
        """A capacity event at slot >= num_slots would silently never
        fire; the engine refuses it like an out-of-horizon request."""
        apps = [make_two_vnf_chain()]
        algorithm = make_quickg(line_substrate, apps)
        schedule = EventSchedule(
            [LinkFailure(slot=4, link=("edge-a", "transport"))]
        )
        with pytest.raises(SimulationError, match="beyond the 4-slot"):
            simulate(algorithm, [], 4, events=schedule)
        # The same schedule is fine on a longer horizon.
        result = simulate(algorithm, [], 5, events=schedule)
        assert result.num_events == 1
        # Workload events past the horizon are refused too — a migration
        # starting after the last slot would silently match nothing.
        migration = EventSchedule(
            [IngressMigration(slot=9, source="edge-a", target="edge-b",
                              until=12)]
        )
        with pytest.raises(SimulationError, match="beyond the 4-slot"):
            simulate(algorithm, [], 4, events=migration)

    def test_profile_windows_stay_inside_the_horizon(self):
        """Profiles schedule recoveries at their window's stop slot; every
        event must fall strictly inside the engine's slot loop, even at
        degenerate horizons."""
        for online_slots in (2, 3, 4, 6, 16):
            scenario = build_scenario(
                ExperimentConfig.test(
                    history_slots=40, online_slots=online_slots,
                    measure_start=1, measure_stop=max(2, online_slots - 1),
                ),
                seed=2,
                with_plan=False,
            )
            for name in event_profile_registry.names():
                schedule = event_profile_registry.create(
                    name, scenario, make_rng(3)
                )
                assert all(
                    e.slot < online_slots for e in schedule.events
                ), (name, online_slots)

    def test_slotoff_swaps_effective_substrate(self, line_substrate):
        apps = [make_two_vnf_chain()]
        algorithm = SlotOffAlgorithm(line_substrate, apps)
        link = ("edge-a", "transport")
        algorithm.apply_events(0, (LinkFailure(slot=0, link=link),), "preempt")
        assert algorithm.substrate.link_capacity(link) == 0.0
        assert line_substrate.link_capacity(link) == 500.0  # nominal untouched
        algorithm.apply_events(2, (LinkRecovery(slot=2, link=link),), "preempt")
        assert algorithm.substrate.link_capacity(link) == 500.0

    def test_disruptions_reported_in_result(self):
        substrate = make_line_substrate()
        apps = [make_two_vnf_chain()]
        algorithm = make_quickg(substrate, apps)
        request = Request(arrival=0, id=1, app_index=0, ingress="edge-a",
                          demand=1.0, duration=8)
        schedule = EventSchedule(
            [LinkFailure(slot=2, link=("edge-a", "transport")),
             NodeDrain(slot=2, node="edge-a", fraction=0.0)],
            policy="reroute",
        )
        result = simulate(algorithm, [request], 8, events=schedule)
        assert result.num_events == 2
        assert [(r.id, t) for r, t in result.disruptions] == [(1, 2)]
        assert result.disrupted_ids == {1}
        # Disruption counts as a preemption (the request never completed).
        assert result.preempted_ids == {1}
        assert disruption_rate(result) == 1.0
        assert availability(result) == pytest.approx(2 / 8)
        assert mean_recovery_time(result) == 6.0  # never re-accepts


class TestProfilesAndFacade:
    @pytest.fixture(scope="class")
    def tiny_scenario(self):
        return build_scenario(
            ExperimentConfig.test(
                history_slots=80, online_slots=16,
                measure_start=2, measure_stop=14,
            ),
            seed=0,
            with_plan=False,
        )

    def test_every_registered_profile_builds_valid_schedules(
        self, tiny_scenario
    ):
        for name in event_profile_registry.names():
            schedule = event_profile_registry.create(
                name, tiny_scenario, make_rng(5)
            )
            assert isinstance(schedule, EventSchedule)
            assert not schedule.is_empty, name
            schedule.validate(tiny_scenario.substrate)
            assert all(
                e.slot < tiny_scenario.config.online_slots
                for e in schedule.events
            ), name

    def test_profiles_are_seed_deterministic(self, tiny_scenario):
        for name in event_profile_registry.names():
            first = event_profile_registry.create(
                name, tiny_scenario, make_rng(9)
            )
            second = event_profile_registry.create(
                name, tiny_scenario, make_rng(9)
            )
            assert first.events == second.events, name

    def test_resolve_events_accepts_names_schedules_and_none(
        self, tiny_scenario
    ):
        assert resolve_events(None, tiny_scenario, 0) is None
        by_name = resolve_events("link-flap", tiny_scenario, 0, "preempt")
        assert by_name.policy == "preempt"
        schedule = EventSchedule([], policy="reroute")
        assert resolve_events(schedule, tiny_scenario, 0) is schedule
        with pytest.raises(SimulationError, match="event profile"):
            resolve_events("no-such-profile", tiny_scenario, 0)
        with pytest.raises(SimulationError, match="EventSchedule"):
            resolve_events(42, tiny_scenario, 0)

    def test_facade_events_run(self):
        config = ExperimentConfig.test(
            history_slots=80, online_slots=16,
            measure_start=2, measure_stop=14, utilization=1.4,
        )
        result = (
            Experiment(config)
            .algorithms("QUICKG")
            .events("blackout", policy="preempt")
            .run()
        )
        summary = result.summary
        assert "QUICKG:disrupted_rate" in summary
        assert "QUICKG:availability" in summary
        assert summary["QUICKG:availability"].mean <= 1.0

    def test_facade_rejects_unknown_profile(self):
        with pytest.raises(SimulationError, match="event profile"):
            Experiment(ExperimentConfig.test()).events("nope")

    def test_facade_rejects_unknown_policy(self):
        with pytest.raises(SimulationError, match="disruption policy"):
            Experiment(ExperimentConfig.test()).events(
                "link-flap", policy="rerotue"
            )

    def test_run_single_event_runs_differ_from_baseline(self):
        config = ExperimentConfig.test(
            history_slots=80, online_slots=16,
            measure_start=2, measure_stop=14, utilization=1.4,
        )
        _, baseline = run_single(config, 3, ("QUICKG",))
        _, disturbed = run_single(
            config, 3, ("QUICKG",), events="blackout", event_policy="preempt"
        )
        assert disturbed["QUICKG"].num_events > 0
        assert (
            disturbed["QUICKG"].decisions != baseline["QUICKG"].decisions
            or disturbed["QUICKG"].disruptions
        )
