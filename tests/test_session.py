"""Unit tests for the streaming simulation session (repro.sim.session).

The bit-identity of step-driven and checkpoint/restored sessions versus
the batch engine — for every algorithm × event profile — is pinned by
the differential oracle in ``tests/test_event_oracle.py``; this module
covers the lifecycle mechanics: slot open/close rules, ad-hoc
submission, partial results, snapshot semantics, and the one scheduling
path seed, flash-crowd and submitted arrivals share.
"""

import gc
import pickle
import random
from dataclasses import replace
from operator import attrgetter

import numpy as np
import pytest

from repro.baselines.quickg import make_quickg
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario, make_algorithm
from repro.scenarios.events import (
    EventSchedule,
    FlashCrowd,
    IngressMigration,
    LinkFailure,
    LinkRecovery,
    NodeDrain,
    NodeRestore,
)
from repro.sim.engine import simulate
from repro.sim.session import SessionSnapshot, SimulationSession
from repro.workload.request import Request
from tests.test_core_olive import line_olive, transport_borrowers
from tests.conftest import residual_of_node


def _request(rid, arrival=0, demand=1.0, duration=3, ingress="edge-a", app=0):
    return Request(
        arrival=arrival, id=rid, app_index=app, ingress=ingress,
        demand=demand, duration=duration,
    )


@pytest.fixture
def session(line_substrate, chain_app):
    algorithm = make_quickg(line_substrate, [chain_app])
    return SimulationSession(
        algorithm, [_request(i, arrival=i % 4) for i in range(8)], 10
    )


class TestLifecycle:
    def test_step_reports_cover_the_slot(self, line_substrate, chain_app):
        algorithm = make_quickg(line_substrate, [chain_app])
        requests = [
            _request(1, arrival=0, demand=2.0, duration=2),
            _request(2, arrival=0, demand=1.0, duration=5),
        ]
        session = SimulationSession(algorithm, requests, 6)
        report = session.step()
        assert report.slot == 0
        assert [d.request.id for d in report.decisions] == [1, 2]
        assert report.requested_demand == pytest.approx(3.0)
        assert report.allocated_demand == pytest.approx(3.0)
        assert report.num_accepted == 2
        assert report.departures == ()
        # Request 1 departs at slot 2.
        session.step()
        report = session.step()
        assert [r.id for r in report.departures] == [1]
        assert report.allocated_demand == pytest.approx(1.0)

    def test_clock_and_done(self, session):
        assert session.clock == 0 and not session.is_done
        for expected in range(10):
            assert session.step().slot == expected
        assert session.is_done
        with pytest.raises(SimulationError, match="horizon"):
            session.step()

    def test_double_begin_and_bare_close_fail(self, session):
        with pytest.raises(SimulationError, match="nothing to close"):
            session.close_slot()
        session.begin_slot()
        with pytest.raises(SimulationError, match="already open"):
            session.begin_slot()
        session.close_slot()

    def test_run_until_bounds(self, session):
        with pytest.raises(SimulationError, match="exceeds"):
            session.run_until(11)
        reports = session.run_until(4)
        assert [r.slot for r in reports] == [0, 1, 2, 3]
        assert session.run_until(4) == []
        with pytest.raises(SimulationError, match="past"):
            session.run_until(2)

    def test_iteration_yields_remaining_slots(self, session):
        session.run_until(7)
        assert [report.slot for report in session] == [7, 8, 9]

    def test_positive_horizon_required(self, line_substrate, chain_app):
        algorithm = make_quickg(line_substrate, [chain_app])
        with pytest.raises(SimulationError, match="positive horizon"):
            SimulationSession(algorithm, [], 0)

    def test_run_equals_batch_engine(self, line_substrate, chain_app):
        requests = [_request(i, arrival=i % 4) for i in range(12)]
        batch = simulate(make_quickg(line_substrate, [chain_app]), requests, 8)
        streamed = SimulationSession(
            make_quickg(line_substrate, [chain_app]), requests, 8
        ).run()
        assert streamed.decisions == batch.decisions
        assert np.array_equal(
            streamed.allocated_demand, batch.allocated_demand
        )
        assert np.array_equal(streamed.resource_cost, batch.resource_cost)


class TestSubmit:
    def test_submitted_interleaves_in_id_order(self, line_substrate, chain_app):
        """An ad-hoc submission lands exactly where the trace would put it."""
        requests = [_request(1, arrival=2), _request(5, arrival=2)]
        late = _request(3, arrival=2, demand=2.0)

        streamed = SimulationSession(
            make_quickg(line_substrate, [chain_app]), requests, 6
        )
        streamed.submit(late)
        assert streamed.pending_arrivals == 3
        result = streamed.run()

        batch = simulate(
            make_quickg(line_substrate, [chain_app]), [*requests, late], 6
        )
        assert result.decisions == batch.decisions
        assert np.array_equal(
            result.requested_demand, batch.requested_demand
        )

    def test_submit_rejects_past_open_and_beyond(self, session):
        session.run_until(3)
        with pytest.raises(SimulationError, match="passed"):
            session.submit(_request(90, arrival=2))
        session.begin_slot()
        with pytest.raises(SimulationError, match="begun"):
            session.submit(_request(91, arrival=3))
        session.submit(_request(92, arrival=4))  # future slots stay open
        session.close_slot()
        with pytest.raises(SimulationError, match="horizon"):
            session.submit(_request(93, arrival=10))

    def test_out_of_order_slots_replay_like_a_sorted_trace(
        self, line_substrate, chain_app
    ):
        """Submissions arriving in scrambled slot order behave exactly
        like a trace that carried them sorted from the start."""
        scrambled = [
            _request(30, arrival=5),
            _request(10, arrival=2, demand=2.0),
            _request(20, arrival=7, duration=1),
            _request(11, arrival=2),
            _request(12, arrival=5, demand=0.5),
        ]
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), [], 8
        )
        for request in scrambled:
            session.submit(request)
        assert session.pending_arrivals == len(scrambled)
        result = session.run()

        # (arrival, id) order — id 12 overtakes the earlier-submitted 30.
        assert [d.request.id for d in result.decisions] == [
            10, 11, 12, 30, 20,
        ]
        batch = simulate(
            make_quickg(line_substrate, [chain_app]), sorted(scrambled), 8
        )
        assert result.decisions == batch.decisions
        assert np.array_equal(result.allocated_demand, batch.allocated_demand)

    def test_same_slot_descending_ids_process_in_id_order(
        self, line_substrate, chain_app
    ):
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), [], 6
        )
        for rid in (9, 3, 6):
            session.submit(_request(rid, arrival=1))
        result = session.run()
        assert [d.request.id for d in result.decisions] == [3, 6, 9]

    def test_mid_run_submissions_interleave_with_seed_trace(
        self, line_substrate, chain_app
    ):
        """Late out-of-order submissions between steps still land in
        sorted position among the seed trace's pending arrivals."""
        seed_trace = [_request(i, arrival=i % 4) for i in range(8)]
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), list(seed_trace), 10
        )
        session.run_until(2)
        extras = [_request(50, arrival=4), _request(40, arrival=3)]
        for request in extras:  # submitted later-slot-first
            session.submit(request)
        streamed = session.run()

        batch = simulate(
            make_quickg(line_substrate, [chain_app]),
            sorted(seed_trace + extras),
            10,
        )
        assert streamed.decisions == batch.decisions
        assert np.array_equal(
            streamed.allocated_demand, batch.allocated_demand
        )

    def test_submitted_departure_releases(self, line_substrate, chain_app):
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), [], 8
        )
        session.submit(_request(1, arrival=1, demand=2.0, duration=2))
        result = session.run()
        assert result.allocated_demand[1] == pytest.approx(2.0)
        assert result.allocated_demand[3] == pytest.approx(0.0)


class TestProcess:
    def test_mid_slot_process(self, line_substrate, chain_app):
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), [], 4
        )
        with pytest.raises(SimulationError, match="begin_slot"):
            session.process(_request(1, arrival=0))
        session.begin_slot()
        decision = session.process(_request(1, arrival=0, demand=2.0))
        assert decision.accepted
        with pytest.raises(SimulationError, match="open slot is 0"):
            session.process(_request(2, arrival=3))
        report = session.close_slot()
        assert report.requested_demand == pytest.approx(2.0)
        assert [d.request.id for d in report.decisions] == [1]

    def test_stale_departure_spares_a_preempted_ids_retry(self, chain_app):
        """A preempted request offered again under its id holds a new
        row. The original's departure is still on the calendar; it must
        release nothing, and the retry leaves at its own departure."""
        olive = line_olive(chain_app)
        borrowers = transport_borrowers(olive, duration=2)
        session = SimulationSession(olive, [], 14)
        session.begin_slot()
        session.process_many(borrowers)
        planned = session.process(_request(1, arrival=0, demand=4.0))
        assert planned.planned and planned.preempted == (borrowers[0],)
        session.close_slot()

        retry = replace(borrowers[0], arrival=1, demand=5.0, duration=10)
        session.begin_slot()
        assert session.process(retry).accepted
        session.close_slot()

        report = session.step()  # slot 2: all fifteen originals depart
        assert report.departures == tuple(borrowers)
        assert report.preempted == ()
        assert olive.active[retry.id].request is retry
        assert report.allocated_demand == pytest.approx(4.0 + 5.0)
        session.run_until(retry.departure)
        assert retry.id in olive.active
        report = session.step()
        assert report.departures == (retry,) and not olive.active
        assert residual_of_node(olive.residual, "transport") == (
            pytest.approx(3000.0)
        )

    def test_batch_algorithm_cannot_stream(self, line_substrate, chain_app):
        session = SimulationSession(
            SlotOffAlgorithm(line_substrate, [chain_app]), [], 4
        )
        assert not session.supports_streaming
        session.begin_slot()
        with pytest.raises(SimulationError, match="batch shape"):
            session.process(_request(1, arrival=0))
        session.close_slot()

    def test_batch_algorithm_steps_like_batch_engine(
        self, line_substrate, chain_app
    ):
        requests = [_request(i, arrival=i % 3) for i in range(6)]
        batch = simulate(
            SlotOffAlgorithm(line_substrate, [chain_app]), requests, 5
        )
        session = SimulationSession(
            SlotOffAlgorithm(line_substrate, [chain_app]), requests, 5
        )
        streamed = session.run()
        assert streamed.decisions == batch.decisions
        assert np.array_equal(
            streamed.allocated_demand, batch.allocated_demand
        )


class TestPartialResult:
    def test_mid_run_result_is_a_prefix(self, session):
        session.run_until(5)
        partial = session.result()
        assert partial.num_slots == 10
        assert np.all(partial.allocated_demand[5:] == 0.0)
        full = session.run()
        assert partial.decisions == full.decisions[: len(partial.decisions)]

    def test_result_refused_mid_slot(self, session):
        session.begin_slot()
        with pytest.raises(SimulationError, match="close_slot"):
            session.result()


class TestSnapshot:
    def test_snapshot_refused_mid_slot(self, session):
        session.begin_slot()
        with pytest.raises(SimulationError, match="close_slot"):
            session.snapshot()

    def test_snapshot_is_isolated_and_reusable(self, session):
        session.run_until(4)
        snapshot = session.snapshot()
        full = session.run()  # the live session keeps going
        first = SimulationSession.restore(snapshot).run()
        second = SimulationSession.restore(snapshot).run()
        assert first.decisions == full.decisions
        assert second.decisions == full.decisions
        assert np.array_equal(first.allocated_demand, full.allocated_demand)

    def test_session_keeps_only_what_is_ahead(self, session):
        """Both calendars drop a slot's entries as the clock passes it, so
        a long-lived session and its checkpoints hold bounded state — and
        a run resumed from such a checkpoint is still bit-identical."""
        full = SimulationSession.restore(session.snapshot()).run()
        session.run_until(4)
        assert session._departures_by_slot  # the fixture departs up to slot 6
        for calendar in (
            session._arrivals_by_slot, session._departures_by_slot
        ):
            assert all(slot >= 4 for slot in calendar)
        resumed = SimulationSession.restore(session.snapshot()).run()
        assert resumed.decisions == full.decisions
        assert np.array_equal(resumed.requested_demand, full.requested_demand)
        assert np.array_equal(resumed.allocated_demand, full.allocated_demand)

    def test_snapshot_survives_pickle_roundtrip(self, session):
        session.run_until(3)
        snapshot = session.snapshot()
        full = session.run()
        revived = SessionSnapshot.from_bytes(snapshot.to_bytes())
        assert revived.clock == 3
        assert revived.algorithm_name == "QUICKG"
        resumed = SimulationSession.restore(revived).run()
        assert resumed.decisions == full.decisions

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda good: pickle.dumps({"not": "a session"}),
            lambda good: b"",
            lambda good: good[: len(good) // 2],
            lambda good: good[:10],
            lambda good: b"\x00not a pickle at all",
        ],
        ids=["foreign", "empty", "truncated-body", "truncated-header",
             "garbage"],
    )
    def test_from_bytes_rejects_foreign_payload(self, session, corrupt):
        session.run_until(3)
        payload = corrupt(session.snapshot().to_bytes())
        with pytest.raises(SimulationError, match="checkpoint"):
            SessionSnapshot.from_bytes(payload)

    @pytest.mark.parametrize("version", [1, 3])
    def test_from_bytes_refuses_a_previous_format(self, session, version):
        """A ``/1`` checkpoint's calendar already holds the departures of
        arrivals not yet decided; loading it would book them twice. A
        ``/3`` one carries an event cursor, a class that is gone."""
        session.run_until(3)
        body = pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)
        header = pickle.dumps(
            (f"repro.SessionSnapshot/{version}", 3, "QUICKG", len(body)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with pytest.raises(SimulationError, match="checkpoint"):
            SessionSnapshot.from_bytes(header + body)

    def test_snapshot_bytes_are_fixed_at_capture(self, session):
        session.run_until(3)
        snapshot = session.snapshot()
        payload = snapshot.to_bytes()
        session.run()  # the live session moves on
        assert snapshot.to_bytes() is payload
        assert SessionSnapshot.from_bytes(payload) == snapshot

    @pytest.mark.parametrize("collecting", [True, False])
    def test_checkpointing_leaves_the_collector_as_found(
        self, session, collecting
    ):
        """snapshot() and restore() pause the cyclic GC around their one
        pickle call and put it back the way it was."""
        if not collecting:
            gc.disable()
        try:
            snapshot = session.snapshot()
            assert gc.isenabled() == collecting
            SimulationSession.restore(snapshot)
            assert gc.isenabled() == collecting
        finally:
            gc.enable()

    def test_greedy_counters_survive_restore(self, line_substrate, chain_app):
        algorithm = make_quickg(line_substrate, [chain_app])
        session = SimulationSession(
            algorithm, [_request(i, arrival=i % 4) for i in range(8)], 10
        )
        session.run_until(4)
        live = algorithm.greedy_context
        assert live.stats()["direct_routes"] == 8

        resumed = SimulationSession.restore(session.snapshot())
        assert resumed.algorithm.greedy_context.stats() == live.stats()
        assert resumed.run().decisions == session.run().decisions

    def test_a_checkpoint_pickles_only_what_is_new(
        self, line_substrate, chain_app
    ):
        """Counted, not timed: at every boundary of a 24-slot run the
        checkpoint pickles exactly the decisions logged and the
        allocations made since the previous one; everything older rides
        as the very bytes objects the previous checkpoint shipped."""
        algorithm = make_quickg(line_substrate, [chain_app])
        session = SimulationSession(
            algorithm,
            [_request(i, arrival=i % 24, duration=1 + i % 5)
             for i in range(60)],
            24,
        )
        segments: list[bytes] = []
        sealed: dict[int, bytes] = {}
        for _ in range(24):
            report = session.step()
            session.snapshot()

            now = session._sealed_segments
            assert all(a is b for a, b in zip(segments, now))
            fresh = now[len(segments):]
            assert len(fresh) == (1 if report.decisions else 0)
            assert [d for s in fresh for d in pickle.loads(s)] == list(
                report.decisions
            )
            segments = list(now)

            rows = {rid: a.sealed for rid, a in algorithm.active.items()}
            assert None not in rows.values()
            accepted = {d.request.id for d in report.decisions if d.accepted}
            assert {
                rid for rid, row in rows.items() if row is not sealed.get(rid)
            } == accepted & set(algorithm.active)
            sealed = rows
        assert len(segments) >= 20

    def test_restored_session_checkpoints_incrementally(self, session):
        """A session restored from a checkpoint holding several segments
        reports the same result, and its next checkpoint adds one
        segment on top of the ones it was restored from."""
        for _ in range(4):
            session.step()
            snapshot = session.snapshot()
        resumed = SimulationSession.restore(snapshot)
        held = list(resumed._sealed_segments)
        assert len(held) >= 3
        live, back = session.result(), resumed.result()
        assert back.decisions == live.decisions
        assert back.preemptions == live.preemptions
        assert np.array_equal(back.allocated_demand, live.allocated_demand)
        assert np.array_equal(back.resource_cost, live.resource_cost)

        resumed.submit(_request(99, arrival=4))
        resumed.step()
        resumed.snapshot()
        assert len(resumed._sealed_segments) == len(held) + 1
        assert all(a is b for a, b in zip(held, resumed._sealed_segments))
        again = SimulationSession.restore(resumed.snapshot())
        assert again.result().decisions == resumed.result().decisions

    def test_restored_session_accepts_new_submissions(
        self, line_substrate, chain_app
    ):
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]),
            [_request(1, arrival=0, duration=8)], 8,
        )
        session.run_until(2)
        resumed = SimulationSession.restore(session.snapshot())
        resumed.submit(_request(2, arrival=4, demand=2.0))
        result = resumed.run()
        assert {d.request.id for d in result.decisions} == {1, 2}


class TestSessionEvents:
    def _schedule(self, substrate):
        link = next(iter(substrate.links))
        return EventSchedule(
            [LinkFailure(slot=2, link=link), LinkRecovery(slot=4, link=link)],
            policy="preempt",
        )

    def test_stepped_events_match_batch(self, line_substrate, chain_app):
        requests = [
            _request(i, arrival=i % 4, demand=2.0, duration=4)
            for i in range(10)
        ]
        schedule = self._schedule(line_substrate)
        batch = simulate(
            make_quickg(line_substrate, [chain_app]), requests, 8,
            events=schedule,
        )
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), requests, 8,
            events=schedule,
        )
        reports = list(session)
        streamed = session.result()
        assert streamed.decisions == batch.decisions
        assert streamed.disruptions == batch.disruptions
        assert streamed.num_events == batch.num_events == 2
        assert sum(r.num_events for r in reports) == 2
        assert [r.slot for r in reports if r.num_events] == [2, 4]

    def test_rerouted_allocation_is_checkpointed_afresh(
        self, line_substrate, chain_app
    ):
        """A reroute re-allocates the same request id: the checkpoint
        after it must carry the *new* allocation, at its new place in
        ``active``, not the bytes cached for the old one."""
        link = ("core", "transport")
        schedule = EventSchedule(
            [LinkFailure(slot=2, link=link), LinkRecovery(slot=4, link=link)],
            policy="reroute",
        )
        algorithm = make_quickg(line_substrate, [chain_app])
        session = SimulationSession(
            algorithm,
            [_request(i, arrival=i % 2, duration=6) for i in range(4)]
            + [_request(9, arrival=1, duration=6, ingress="edge-b")],
            8,
            events=schedule,
        )
        session.run_until(2)
        session.snapshot()
        before = {
            rid: allocation.loads
            for rid, allocation in algorithm.active.items()
        }
        session.step()  # the failure strands and reroutes ids 0-3
        moved = [
            rid for rid, allocation in algorithm.active.items()
            if allocation.loads != before[rid]
        ]
        assert moved and list(algorithm.active)[-len(moved):] == moved

        resumed = SimulationSession.restore(session.snapshot())
        restored = resumed.algorithm.active
        assert list(restored) == list(algorithm.active)
        for rid, allocation in algorithm.active.items():
            assert restored[rid] == allocation
        assert resumed.run().decisions == session.run().decisions
        assert resumed.result().disruptions == session.result().disruptions

    def test_live_arrivals_follow_ingress_migrations(
        self, line_substrate, chain_app
    ):
        """submit()/process() arrivals are re-homed exactly like the seed
        stream, so a live stream ≡ the same requests in the trace."""
        schedule = EventSchedule(
            [IngressMigration(slot=1, source="edge-a", target="edge-b",
                              until=4)]
        )
        migrated = _request(7, arrival=2, ingress="edge-a")
        outside = _request(8, arrival=5, ingress="edge-a")

        batch = simulate(
            make_quickg(line_substrate, [chain_app]), [migrated, outside], 8,
            events=schedule,
        )
        session = SimulationSession(
            make_quickg(line_substrate, [chain_app]), [], 8, events=schedule
        )
        session.submit(migrated)
        session.run_until(5)
        session.begin_slot()
        live = session.process(outside)
        session.close_slot()
        result = session.run()

        assert result.decisions == batch.decisions
        assert result.decision_by_id[7].request.ingress == "edge-b"
        assert live.request.ingress == "edge-a"  # outside the window

    @pytest.mark.parametrize("seed", range(6))
    def test_any_split_between_constructor_and_submit_is_one_stream(
        self, line_substrate, chain_app, seed
    ):
        """Seed arrivals, submitted ones and a flash crowd take one path
        onto the calendar: however the stream is split between the
        constructor and ``submit()`` — before the run, or after a
        checkpoint is restored — the slots report the same as when the
        constructor gets it all, and so does the event count."""
        rng = random.Random(seed)
        schedule = EventSchedule(
            [
                IngressMigration(slot=2, source="edge-a", target="edge-b",
                                 until=6),
                FlashCrowd(slot=3, requests=tuple(
                    _request(1000 + i, arrival=3 + i % 3, demand=60.0,
                             duration=3, ingress="edge-a")
                    for i in range(6)
                )),
                NodeDrain(slot=4, node="core"),
                NodeRestore(slot=6, node="core"),
            ],
        )
        stream = [
            _request(i, arrival=rng.randrange(8),
                     demand=rng.choice((5.0, 20.0, 50.0)),
                     duration=rng.randint(1, 5),
                     ingress=rng.choice(("edge-a", "edge-b")))
            for i in range(40)
        ]

        def quickg():
            return make_quickg(line_substrate, [chain_app])

        def key(report):  # all but the wall-clock
            return replace(report, runtime_seconds=0.0)

        whole = SimulationSession(quickg(), stream, 8, events=schedule)
        expected = [key(report) for report in whole]
        decided = [d for report in expected for d in report.decisions]
        assert any(d.request.id >= 1000 for d in decided)
        assert any(
            d.request.ingress != r.ingress
            for d in decided for r in stream if d.request.id == r.id
        )
        assert any(not d.accepted for d in decided)
        assert any(report.disrupted for report in expected)

        half = rng.randint(1, 7)
        parts: list[list[Request]] = [[], [], []]
        for request in stream:
            parts[rng.randrange(3 if request.arrival >= half else 2)].append(
                request
            )
        seeded, early, late = parts
        session = SimulationSession(quickg(), seeded, 8, events=schedule)
        for request in early:
            session.submit(request)
        reports = [key(report) for report in session.run_until(half)]
        resumed = SimulationSession.restore(session.snapshot())
        for request in rng.sample(late, len(late)):
            resumed.submit(request)
        reports += [key(report) for report in resumed]
        assert reports == expected
        assert resumed.result().num_events == whole.result().num_events == 4

    def test_flash_crowd_of_an_unknown_app_fails_fast(
        self, line_substrate, chain_app
    ):
        """Refused at construction, not at the crowd's slot."""
        schedule = EventSchedule(
            [FlashCrowd(slot=3, requests=(_request(99, arrival=3, app=1),))]
        )
        with pytest.raises(SimulationError, match="app_index 1"):
            SimulationSession(
                make_quickg(line_substrate, [chain_app]), [], 8,
                events=schedule,
            )

    def test_event_validation_matches_engine(self, line_substrate, chain_app):
        schedule = self._schedule(line_substrate)
        with pytest.raises(SimulationError, match="beyond"):
            SimulationSession(
                make_quickg(line_substrate, [chain_app]), [], 3,
                events=schedule,
            )


def _unsorted(calendar) -> bool:
    key = attrgetter("arrival", "id")
    return any(
        entries != sorted(entries, key=key) for entries in calendar.values()
    )


class TestCalendar:
    """A slot's calendar lists keep the order their entries were added
    in and are sorted once, when the slot begins: how arrivals were cut,
    ordered or submitted never shows."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return build_scenario(
            ExperimentConfig.test(
                history_slots=40, online_slots=10, arrivals_per_node=3.0,
                measure_start=2, measure_stop=8, utilization=1.4,
            ),
            seed=0,
        )

    @staticmethod
    def _shuffled_runs(session, requests, rng, slots):
        """Drive ``slots`` slots, each slot's arrivals shuffled and cut
        into random runs of ``process_many``; return the reports."""
        by_slot: dict[int, list] = {}
        for request in requests:
            by_slot.setdefault(request.arrival, []).append(request)
        reports = []
        for t in range(slots):
            session.begin_slot()
            run = by_slot.get(t, [])
            rng.shuffle(run)
            while run:
                cut = rng.randint(1, len(run))
                session.process_many(run[:cut])
                run = run[cut:]
            reports.append(session.close_slot())
        return reports

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cut_and_order_leave_departures_alone(self, scenario, seed):
        slots = scenario.config.online_slots
        requests = scenario.online_requests()
        reference = list(SimulationSession(
            make_algorithm("OLIVE", scenario), requests, slots
        ))
        shuffled = self._shuffled_runs(
            SimulationSession(make_algorithm("OLIVE", scenario), (), slots),
            requests, random.Random(seed), slots,
        )
        for expected, report in zip(reference, shuffled, strict=True):
            assert report.departures == expected.departures
            keys = [(r.arrival, r.id) for r in report.departures]
            assert keys == sorted(keys)
        assert sum(len(r.departures) for r in shuffled) > 100

    def test_submit_order_does_not_show(self, scenario):
        slots = scenario.config.online_slots
        requests = scenario.online_requests()
        reference = SimulationSession(
            make_algorithm("OLIVE", scenario), requests, slots
        ).run()
        session = SimulationSession(make_algorithm("OLIVE", scenario), (), slots)
        for request in random.Random(0).sample(requests, len(requests)):
            session.submit(request)
        assert _unsorted(session._arrivals_by_slot)
        result = session.run()
        assert result.decisions == reference.decisions
        assert np.array_equal(result.allocated_demand, reference.allocated_demand)

    def test_snapshot_of_unsorted_calendars_restores_bit_identically(
        self, scenario
    ):
        slots = scenario.config.online_slots
        half = slots // 2
        rng = random.Random(3)
        requests = scenario.online_requests()
        session = SimulationSession(make_algorithm("OLIVE", scenario), (), slots)
        for request in rng.sample(requests, len(requests)):
            if request.arrival >= half:
                session.submit(request)
        self._shuffled_runs(session, requests, rng, half)
        assert _unsorted(session._arrivals_by_slot)
        assert _unsorted(session._departures_by_slot)

        resumed = SimulationSession.restore(session.snapshot()).run()
        full = session.run()
        assert resumed.decisions == full.decisions
        assert resumed.preemptions == full.preemptions
        for field in ("requested_demand", "allocated_demand", "resource_cost"):
            assert np.array_equal(getattr(resumed, field), getattr(full, field))
