"""Tests for the serving layer (repro.serve) and its facade entry points."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import Experiment
from repro.baselines.quickg import make_quickg
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.errors import SimulationError
from repro.experiments.config import ExperimentConfig
from repro.registry import admission_policy_registry, register_admission_policy
from repro.serve import (
    AdmissionPolicy,
    EmbedderService,
    MetricsStream,
    TokenBucket,
    poisson_offers,
)
from repro.sim.session import SimulationSession
from repro.utils.rng import make_rng
from repro.workload.request import Request
from tests.test_core_olive import line_olive, transport_borrowers


def _request(rid, arrival=0, demand=1.0, duration=3, ingress="edge-a", app=0):
    return Request(
        arrival=arrival, id=rid, app_index=app, ingress=ingress,
        demand=demand, duration=duration,
    )


def _service(line_substrate, chain_app, num_slots=10, **kwargs):
    session = SimulationSession(
        make_quickg(line_substrate, [chain_app]), [], num_slots
    )
    return EmbedderService(session, **kwargs)


class TestOffer:
    def test_offer_returns_synchronous_decision(
        self, line_substrate, chain_app
    ):
        service = _service(line_substrate, chain_app)
        decision = service.offer(_request(1, arrival=0, demand=2.0))
        assert decision.accepted
        assert service.current_slot == 0  # micro-batch: slot stays open
        assert service.metrics.offers == 1

    def test_same_slot_offers_share_one_slot(self, line_substrate, chain_app):
        service = _service(line_substrate, chain_app)
        for rid in range(3):
            service.offer(_request(rid, arrival=2))
        assert service.current_slot == 2
        report = service.tick()  # closes slot 2
        assert len(report.decisions) == 3
        assert service.current_slot == 3

    def test_future_offer_drains_idle_slots(self, line_substrate, chain_app):
        service = _service(line_substrate, chain_app)
        service.offer(_request(1, arrival=0, duration=2))
        seen = []
        service.metrics.subscribe(lambda m: seen.append(m.slot))
        decision = service.offer(_request(2, arrival=5))
        assert decision.accepted
        assert service.current_slot == 5
        # Slots 1-4 were drained on the way (their departures happened).
        assert seen == [1, 2, 3, 4, 5]

    def test_late_and_out_of_horizon_offers_fail(
        self, line_substrate, chain_app
    ):
        service = _service(line_substrate, chain_app)
        service.advance_to(4)
        with pytest.raises(SimulationError, match="already at slot 4"):
            service.offer(_request(1, arrival=2))
        with pytest.raises(SimulationError, match="horizon"):
            service.offer(_request(2, arrival=10))
        service.finish()
        with pytest.raises(SimulationError, match="ended"):
            service.offer(_request(3, arrival=9))

    def test_finish_matches_session_result(self, line_substrate, chain_app):
        service = _service(line_substrate, chain_app, num_slots=6)
        service.offer(_request(1, arrival=0, demand=2.0, duration=2))
        result = service.finish()
        assert result.num_requests == 1
        assert result.allocated_demand[0] == pytest.approx(2.0)
        assert result.allocated_demand[3] == pytest.approx(0.0)
        assert service.is_done

    def test_batch_algorithms_are_rejected(self, line_substrate, chain_app):
        session = SimulationSession(
            SlotOffAlgorithm(line_substrate, [chain_app]), [], 5
        )
        with pytest.raises(SimulationError, match="batch shape"):
            EmbedderService(session)

    def test_requires_a_session(self):
        with pytest.raises(SimulationError, match="SimulationSession"):
            EmbedderService(object())


@pytest.mark.parametrize(
    "lane,admission",
    [
        pytest.param("offer", "always", id="offer"),
        pytest.param("offer_many", "always", id="offer_many"),
        # A policy that can shed takes the session's per-request lane.
        pytest.param("offer_many", "token-bucket", id="offer_many-policy"),
    ],
)
def test_refused_offer_books_nothing(lane, admission):
    """A retried id is refused by the algorithm ("processed twice"). The
    session must then hold nothing of it: no demand, and no departure —
    the duplicate's earlier one would release the *original's*
    allocation by id. Nor may a bulk run book the tail it never reached.
    """
    from dataclasses import replace

    from repro.experiments.scenario import build_scenario, make_algorithm
    from repro.scenarios.events import capacity_invariant_gap

    scenario = build_scenario(ExperimentConfig.test(utilization=0.6), seed=3)
    online = scenario.online_requests()
    service = EmbedderService(
        SimulationSession(
            make_algorithm("QUICKG", scenario), online,
            scenario.config.online_slots,
        ),
        admission=admission,
    )
    a, b, c = (
        replace(online[0], id=10_000_000 + i, arrival=0, duration=8)
        for i in range(3)
    )
    dup = replace(a, duration=1)
    run = [a, dup] if lane == "offer" else [a, b, dup, c]
    with pytest.raises(SimulationError, match="processed twice"):
        if lane == "offer":
            for request in run:
                service.offer(request)
        else:
            service.offer_many(run)
    assert service.algorithm.active[a.id].request is a

    reports = service.advance_to(a.departure)
    assert a.id in service.algorithm.active  # not released at dup.departure
    reports.append(service.tick())
    assert a.id not in service.algorithm.active
    departed = [r.id for report in reports for r in report.departures]
    assert departed.count(a.id) == 1 and c.id not in departed
    assert reports[0].requested_demand == pytest.approx(
        sum(r.demand for r in online if r.arrival == 0)
        + sum(r.demand for r in run[:run.index(dup)])
    )
    assert capacity_invariant_gap(service.algorithm) == pytest.approx(
        0.0, abs=1e-6
    )


def test_preempted_ids_retry_outlives_the_stale_departure(chain_app):
    """Through ``offer``: a preempted request offered again under its id
    is not released by the original's departure — nor, on a restored
    service (rows rebuilt, so equal but no longer the calendar's
    objects), kept past its own. The preemption is counted."""
    olive = line_olive(chain_app)
    borrowers = transport_borrowers(olive, duration=2)
    service = EmbedderService(SimulationSession(olive, [], 14))
    service.offer_many(borrowers)
    planned = service.offer(_request(1, arrival=0, demand=4.0, duration=5))
    assert planned.planned and planned.preempted == (borrowers[0],)
    retry = replace(borrowers[0], arrival=1, demand=5.0, duration=10)
    assert service.offer(retry).accepted

    service.advance_to(3)  # slot 2 ran the fifteen original departures
    assert olive.active[retry.id].request is retry
    assert service.metrics.preempted == 1 and service.metrics.disrupted == 0
    assert service.metrics.latest.preempted == 1
    assert "1 preempted" in service.metrics.latest.describe()

    resumed = EmbedderService.restore(service.snapshot())
    for live in (service, resumed):
        live.advance_to(retry.departure)
        assert list(live.algorithm.active) == [retry.id]
        live.tick()
        assert not live.algorithm.active
        assert live.metrics.preempted == 1
    merged = MetricsStream.merged([service.metrics, resumed.metrics])
    assert merged.preempted == 2


class TestOfferMany:
    """offer_many must be decision-bit-identical to sequential offer()."""

    def _traffic(self, scenario, slots, seed):
        rng = make_rng(seed)
        requests = []
        for _, batch in poisson_offers(
            scenario, slots, rng, rate_per_node=1.0
        ):
            requests.extend(batch)
        return requests

    @pytest.mark.parametrize(
        "admission,params",
        [
            ("always", None),
            # Stateful policies: decide() order must match exactly.
            ("token-bucket", {"rate": 2.0, "burst": 3.0}),
            ("utilization-guard", {"threshold": 0.4}),
        ],
    )
    def test_bit_identical_to_sequential_offers(
        self, test_scenario, admission, params
    ):
        from repro.experiments.scenario import make_algorithm

        slots = min(5, test_scenario.config.online_slots)
        requests = self._traffic(test_scenario, slots, seed=11)
        assert len(requests) > 4

        services = []
        for _ in range(2):
            session = SimulationSession(
                make_algorithm("OLIVE", test_scenario),
                [],
                test_scenario.config.online_slots,
            )
            services.append(
                EmbedderService(
                    session, admission=admission, admission_params=params
                )
            )
        sequential, batched = services

        one_by_one = [sequential.offer(r) for r in requests]
        many = batched.offer_many(requests)

        assert [d.accepted for d in many] == [
            d.accepted for d in one_by_one
        ]
        assert [d.embedding for d in many] == [
            d.embedding for d in one_by_one
        ]
        assert batched.metrics.offers == sequential.metrics.offers
        assert batched.metrics.shed == sequential.metrics.shed
        final_many = batched.finish()
        final_one = sequential.finish()
        assert final_many.decisions == final_one.decisions
        assert np.array_equal(
            final_many.allocated_demand, final_one.allocated_demand
        )

    def test_error_mid_run_leaves_the_sequential_log(self):
        """A retried id inside one run raises after its predecessors
        committed: the session log must hold exactly what ``offer()``
        calls would have logged — for ``offer_many`` and for scheduled
        arrivals alike. ``requested_demand`` is compared between the two
        offer lanes only: they book a request once the algorithm decided
        it, so the refused duplicate adds nothing, whereas a scheduled
        arrival was submitted (and is counted at ``begin_slot``) before
        anything could refuse it."""
        from repro.experiments.scenario import build_scenario, make_algorithm
        from repro.scenarios.events import capacity_invariant_gap
        from repro.sim.engine import simulate

        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.2), seed=3
        )
        slots = scenario.config.online_slots
        online = sorted(scenario.online_requests())
        clean = simulate(make_algorithm("OLIVE", scenario), online, slots)
        # Fail in the first slot that preempts, after the preemption:
        # the run ends at that slot's last accepted request, retried.
        slot = clean.preemptions[0][1]
        before = [r for r in online if r.arrival < slot]
        run = [d.request for d in clean.decisions if d.request.arrival == slot]
        last = max(
            i for i, d in enumerate(clean.decisions[len(before):][:len(run)])
            if d.accepted
        )
        run = run[:last + 1]
        failing = run + [run[-1]]

        def session(preloaded=()):
            return SimulationSession(
                make_algorithm("OLIVE", scenario), preloaded, slots
            )

        sequential = EmbedderService(session())
        sequential.offer_many(before)
        with pytest.raises(SimulationError, match="processed twice"):
            for request in failing:
                sequential.offer(request)

        bulk = EmbedderService(session())
        bulk.offer_many(before)
        with pytest.raises(SimulationError, match="processed twice"):
            bulk.offer_many(failing)

        # (arrival, id) order keeps the scheduled duplicate last as well.
        scheduled = session(before + failing)
        scheduled.run_until(slot)
        with pytest.raises(SimulationError, match="processed twice"):
            scheduled.begin_slot()

        sequential.session.close_slot()
        expected = sequential.session.result()
        assert len(expected.decisions) == len(before) + len(run)
        assert any(t == slot for _, t in expected.preemptions)
        for other in (bulk.session, scheduled):
            other.close_slot()
            got = other.result()
            assert got.decisions == expected.decisions
            assert got.preemptions == expected.preemptions
            assert capacity_invariant_gap(other.algorithm) == pytest.approx(
                0.0, abs=1e-6
            )
        assert np.array_equal(
            bulk.session.result().requested_demand, expected.requested_demand
        )

    def test_offer_many_spans_slots(self, line_substrate, chain_app):
        service = _service(line_substrate, chain_app)
        requests = [
            _request(1, arrival=0), _request(2, arrival=0),
            _request(3, arrival=2), _request(4, arrival=2),
            _request(5, arrival=2),
        ]
        decisions = service.offer_many(requests)
        assert [d.request.id for d in decisions] == [1, 2, 3, 4, 5]
        assert all(d.accepted for d in decisions)
        assert service.current_slot == 2  # last run's slot stays open
        assert service.metrics.offers == 5

    def test_offer_many_empty(self, line_substrate, chain_app):
        service = _service(line_substrate, chain_app)
        assert service.offer_many([]) == []


class TestBackpressure:
    def test_schedule_bounded_queue(self, line_substrate, chain_app):
        service = _service(line_substrate, chain_app, max_pending=2)
        assert service.schedule(_request(1, arrival=3))
        assert service.schedule(_request(2, arrival=4))
        assert not service.schedule(_request(3, arrival=5))  # shed
        assert service.pending_count == 2
        assert service.metrics.shed == 1
        assert service.recent_shed[-1][0] == 3
        # Draining the queue reopens it.
        service.advance_to(5)
        assert service.schedule(_request(4, arrival=6))

    def test_queue_bound_admission_policy(self, line_substrate, chain_app):
        service = _service(
            line_substrate, chain_app,
            admission="queue-bound", admission_params={"max_pending": 1},
        )
        service.schedule(_request(1, arrival=5))
        shed = service.offer(_request(2, arrival=0))
        assert not shed.accepted
        assert service.metrics.shed == 1
        # The algorithm never saw the shed offer.
        service.tick()
        assert service.session.result().num_requests == 0


class TestAdmissionPolicies:
    def test_token_bucket_is_deterministic(self, line_substrate, chain_app):
        service = _service(
            line_substrate, chain_app,
            admission="token-bucket",
            admission_params={"rate": 1.0, "burst": 2.0},
        )
        outcomes = [
            service.offer(_request(rid, arrival=0, demand=0.1)).accepted
            for rid in range(4)
        ]
        assert outcomes == [True, True, False, False]  # burst of 2, then dry
        service.advance_to(1)
        assert service.offer(_request(9, arrival=1, demand=0.1)).accepted

    def test_utilization_guard(self, line_substrate, chain_app):
        service = _service(
            line_substrate, chain_app,
            admission="utilization-guard",
            admission_params={"threshold": 0.01},
        )
        assert service.offer(_request(1, arrival=0, demand=50.0)).accepted
        assert service.utilization() > 0.01
        shed = service.offer(_request(2, arrival=0, demand=1.0))
        assert not shed.accepted
        assert "utilization" in service.recent_shed[-1][2]

    def test_policy_instances_and_bad_params(self, line_substrate, chain_app):
        service = _service(
            line_substrate, chain_app, admission=TokenBucket(rate=2.0)
        )
        assert service.offer(_request(1, arrival=0)).accepted
        with pytest.raises(SimulationError, match="admission_params"):
            _service(
                line_substrate, chain_app,
                admission=TokenBucket(rate=2.0),
                admission_params={"rate": 1.0},
            )
        with pytest.raises(SimulationError, match="unknown admission policy"):
            _service(line_substrate, chain_app, admission="nope")

    def test_custom_policy_via_registry(self, line_substrate, chain_app):
        class OddIdsOnly(AdmissionPolicy):
            def decide(self, request, service):
                return None if request.id % 2 else "even id"

        register_admission_policy(
            "odd-ids", description="test policy"
        )(OddIdsOnly)
        try:
            service = _service(line_substrate, chain_app, admission="odd-ids")
            assert service.offer(_request(1, arrival=0)).accepted
            assert not service.offer(_request(2, arrival=0)).accepted
        finally:
            admission_policy_registry.unregister("odd-ids")


class TestMetricsStream:
    def test_counters_and_percentiles(self):
        stream = MetricsStream(window=4)
        for latency, accepted in (
            (0.001, True), (0.002, True), (0.003, False), (0.004, True),
        ):
            stream.record_offer(accepted, latency)
        stream.record_shed()
        snapshot = stream.snapshot(slot=7, utilization=0.5, pending=3)
        assert snapshot.offers == 5
        assert snapshot.accepted == 3
        assert snapshot.rejected == 1
        assert snapshot.shed == 1
        assert snapshot.acceptance_rate == pytest.approx(3 / 5)
        assert snapshot.rolling_acceptance_rate == pytest.approx(3 / 4)
        # Nearest-rank: p50 of 4 samples is rank ceil(0.5*4)-1 = 1 (2ms),
        # not the rounded-interpolation rank the old bug produced (3ms).
        assert snapshot.p50_latency_ms == pytest.approx(2.0)
        assert snapshot.p99_latency_ms == pytest.approx(4.0)
        assert snapshot.pending == 3 and snapshot.slot == 7
        assert "p99" in snapshot.describe()

    def test_empty_stream_snapshot(self):
        snapshot = MetricsStream().snapshot(slot=0, utilization=0.0, pending=0)
        assert snapshot.acceptance_rate == 1.0
        assert snapshot.p99_latency_ms == 0.0

    def test_subscribers_fire_per_closed_slot(
        self, line_substrate, chain_app
    ):
        service = _service(line_substrate, chain_app, num_slots=4)
        slots = []
        service.metrics.subscribe(lambda m: slots.append(m.slot))
        service.finish()
        assert slots == [1, 2, 3, 4]
        assert service.metrics.latest.slot == 4

    def test_window_validation(self):
        with pytest.raises(ValueError):
            MetricsStream(window=0)

    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=1e3,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=64,
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_percentile_matches_numpy_inverted_cdf(self, values, fraction):
        """_percentile is exactly numpy's nearest-rank (inverted_cdf)."""
        from repro.serve.metrics import _percentile

        expected = float(
            np.quantile(values, fraction, method="inverted_cdf")
        )
        assert _percentile(sorted(values), fraction) == expected


class TestServiceSnapshot:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {
                "admission": "token-bucket",
                "admission_params": {"rate": 1, "burst": 2},
                "max_pending": 3,
            },
        ],
        ids=["always", "token-bucket"],
    )
    def test_checkpoint_and_restore(self, line_substrate, chain_app, kwargs):
        """A resumed service is the live one: it sheds, decides, counts
        and bounds its queue exactly as if it had never stopped."""

        def tail(service):
            # Slot 3 finds the bucket where slot 2 left it; the
            # schedule() calls run into whatever max_pending allows.
            offered = service.offer_many(
                [_request(20 + i, arrival=3) for i in range(4)]
                + [_request(30 + i, arrival=5) for i in range(4)]
            )
            queued = [
                service.schedule(_request(40 + i, arrival=7))
                for i in range(5)
            ]
            return offered, queued, service.finish().decisions

        live = _service(line_substrate, chain_app, **kwargs)
        notified = []
        live.metrics.subscribe(notified.append)
        live.offer_many([_request(i, arrival=0, duration=9) for i in range(4)])
        live.offer_many([_request(10 + i, arrival=2) for i in range(4)])
        live.advance_to(3)
        snapshot = live.snapshot()

        resumed = EmbedderService.restore(snapshot)
        assert resumed.current_slot == 3
        assert resumed.max_pending == live.max_pending
        assert resumed.metrics.offers == live.metrics.offers == 8
        heard = len(notified)
        replayed = tail(resumed)
        # Subscribers are the live process's wiring; they stay behind.
        assert len(notified) == heard
        assert replayed == tail(live)
        assert len(notified) > heard
        assert resumed.recent_shed == live.recent_shed
        for counter in (
            "offers", "accepted", "rejected", "shed", "disrupted",
            "preempted", "slots",
        ):
            assert getattr(resumed.metrics, counter) == getattr(
                live.metrics, counter
            ), counter
        if kwargs:
            assert live.metrics.shed > 2  # bucket and queue bound both bit
            assert replayed[1] == [True, True, True, False, False]

    @pytest.mark.parametrize("name", sorted(admission_policy_registry.names()))
    def test_every_registered_policy_round_trips(
        self, name, line_substrate, chain_app
    ):
        """Drive 50 offers, checkpoint, and the next 50 decide the same."""

        def offers(start):
            return [
                _request(start + i, arrival=(start + i) // 10, duration=2)
                for i in range(50)
            ]

        live = _service(line_substrate, chain_app, admission=name)
        live.offer_many(offers(0))
        live.advance_to(5)
        resumed = EmbedderService.restore(live.snapshot())
        assert type(resumed.admission) is type(live.admission)
        assert resumed.offer_many(offers(50)) == live.offer_many(offers(50))
        assert resumed.metrics.shed == live.metrics.shed
        assert resumed.finish().decisions == live.finish().decisions

    def test_unpicklable_policy_is_refused_by_name(
        self, line_substrate, chain_app
    ):
        class Closure(AdmissionPolicy):
            def __init__(self):
                self.limit = lambda: 3  # a lambda does not pickle

        service = _service(line_substrate, chain_app, admission=Closure())
        service.offer(_request(1, arrival=0))
        service.advance_to(1)
        with pytest.raises(SimulationError, match="Closure") as excinfo:
            service.snapshot()
        assert excinfo.value.__cause__ is not None
        # Nothing was half-done: the live service keeps serving.
        assert service.offer(_request(2, arrival=1)).accepted

    def test_service_and_session_snapshots_are_not_interchangeable(
        self, line_substrate, chain_app
    ):
        service = _service(line_substrate, chain_app)
        with pytest.raises(SimulationError, match="holds a EmbedderService"):
            SimulationSession.restore(service.snapshot())
        with pytest.raises(SimulationError, match="holds a SimulationSession"):
            EmbedderService.restore(service.session.snapshot())


class TestFacadeEntryPoints:
    @pytest.fixture(scope="class")
    def experiment(self):
        return Experiment(ExperimentConfig.test()).algorithms("QUICKG")

    def test_stream_rejects_sweeps(self, experiment):
        swept = experiment.sweep("utilization", (0.6, 1.0))
        with pytest.raises(SimulationError, match="sweep"):
            swept.stream()

    def test_stream_carries_events(self, experiment):
        session = experiment.events("link-flap").stream(seed=5)
        result = session.run()
        assert result.num_events > 0

    def test_serve_builds_a_live_service(self, experiment):
        service = experiment.serve(
            seed=1, admission="queue-bound",
            admission_params={"max_pending": 128},
        )
        assert service.scenario is not None
        assert service.pending_count == 0  # live traffic only by default
        rng = make_rng(1)
        offered = 0
        for slot, batch in poisson_offers(
            service.scenario, 3, rng, rate_per_node=0.5
        ):
            for request in batch:
                offered += 1
                service.offer(request)
            service.advance_to(slot + 1)
        assert service.metrics.offers == offered > 0
        result = service.finish()
        assert result.num_requests == offered

    def test_serve_preloads_trace_on_request(self, experiment):
        service = experiment.serve(seed=1, preload_trace=True)
        assert service.pending_count > 0

    def test_stream_unknown_algorithm(self, experiment):
        with pytest.raises(SimulationError, match="unknown algorithm"):
            experiment.stream(algorithm="NOPE")


class TestPoissonOffers:
    """The live-traffic generator behind the serve target."""

    def test_batches_are_well_formed(self, test_scenario):
        nodes = set(test_scenario.substrate.nodes)
        num_apps = len(test_scenario.apps)
        next_id = 10_000_000  # LIVE_ID_BASE
        total = 0
        for slot, batch in poisson_offers(test_scenario, 5, make_rng(7)):
            assert 0 <= slot < 5
            for request in batch:
                assert request.arrival == slot
                assert request.id == next_id  # consecutive, trace-disjoint
                next_id += 1
                assert request.ingress in nodes
                assert 0 <= request.app_index < num_apps
                assert request.demand >= 0.1
                assert request.duration >= 1
                total += 1
        assert total > 0

    def test_deterministic_under_seed(self, test_scenario):
        first = list(poisson_offers(test_scenario, 4, make_rng(3)))
        second = list(poisson_offers(test_scenario, 4, make_rng(3)))
        assert first == second

    def test_start_slot_and_id_base(self, test_scenario):
        batches = list(
            poisson_offers(
                test_scenario, 3, make_rng(1), start_slot=7, id_base=500
            )
        )
        assert [slot for slot, _ in batches] == [7, 8, 9]
        assert all(
            request.arrival == slot
            for slot, batch in batches
            for request in batch
        )
        ids = [request.id for _, batch in batches for request in batch]
        assert ids == list(range(500, 500 + len(ids)))

    def test_default_rate_is_config_pressure_per_app(self, test_scenario):
        """The default rate equals arrivals_per_node / num_apps exactly:
        passing it explicitly reproduces the same draws from the same
        rng."""
        explicit = test_scenario.config.arrivals_per_node / len(
            test_scenario.apps
        )
        implicit_draw = list(poisson_offers(test_scenario, 3, make_rng(9)))
        explicit_draw = list(
            poisson_offers(
                test_scenario, 3, make_rng(9), rate_per_node=explicit
            )
        )
        assert implicit_draw == explicit_draw

    def test_nonpositive_rate_rejected(self, test_scenario):
        with pytest.raises(SimulationError, match="rate must be positive"):
            list(
                poisson_offers(
                    test_scenario, 2, make_rng(0), rate_per_node=0.0
                )
            )


class TestServeCLI:
    def test_cli_serve_smoke(self, capsys):
        from repro.experiments.__main__ import main

        code = main([
            "serve", "--scale", "test", "--topology", "CittaStudi",
            "--algo", "QUICKG", "--admission", "token-bucket",
            "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving QUICKG" in out
        assert "done:" in out
