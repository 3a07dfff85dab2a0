"""Tests for the sharded serving tier (repro.shard).

Covers the partitioner invariants, the two-phase boundary ledger, the
K=1 bit-identity contract against the unsharded service, cross-shard
two-phase resolution, merged metrics vs the single-shard oracle, and
kill-and-restore failover on process workers.
"""

import dataclasses
import pickle

import pytest

from repro.api import Experiment
from repro.baselines.quickg import make_quickg
from repro.errors import ShardError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.registry import register_shard_policy, shard_policy_registry
from repro.serve import EmbedderService, poisson_offers
from repro.shard import (
    BoundaryLedger,
    InlineShardWorker,
    ProcessShardWorker,
    partition_substrate,
    restrict_plan,
)
from repro.shard.worker import read_checkpoint
from repro.sim.session import SessionSnapshot, SimulationSession
from repro.substrate import make_citta_studi
from repro.utils.rng import child_rng, make_rng
from repro.workload.request import Request


def _config(**overrides) -> ExperimentConfig:
    """A serve-sized test config: 12 online slots, measured 2..10."""
    defaults = dict(measure_start=2, measure_stop=10, online_slots=12)
    defaults.update(overrides)
    return ExperimentConfig.test(**defaults)


def _drive(service, scenario, slots, seed):
    """Offer the canonical Poisson trace; return the decision stream."""
    rng = child_rng(make_rng(seed), "serve-traffic")
    decisions = []
    for slot, batch in poisson_offers(scenario, slots, rng):
        decisions.extend(service.offer_many(batch))
        service.advance_to(slot + 1)
    return decisions


# -- partitioner ---------------------------------------------------------------


class TestPartition:
    @pytest.mark.parametrize("policy", sorted(shard_policy_registry.names()))
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_partition_invariants(self, policy, num_shards):
        substrate = make_citta_studi()
        partition = partition_substrate(
            substrate, num_shards, policy=policy, seed=7
        )
        # Coverage: every node in exactly one shard, shard ids 0..K-1.
        assert set(partition.assignment) == set(substrate.nodes)
        assert set(partition.assignment.values()) == set(range(num_shards))
        assert sum(len(r.nodes) for r in partition.shards) == (
            substrate.num_nodes
        )
        # Link classification: intra links + boundary links = all links.
        intra = sum(r.substrate.num_links for r in partition.shards)
        assert intra + len(partition.boundary_links) == substrate.num_links
        for link in partition.boundary_links:
            assert partition.shard_of(link[0]) != partition.shard_of(link[1])
        # Each region is connected (SubstrateNetwork enforces on build)
        # and inherits the source's node insertion order.
        source_order = list(substrate.nodes)
        for region in partition.shards:
            member_order = [n for n in source_order if n in region.nodes]
            assert list(region.substrate.nodes) == member_order

    @pytest.mark.parametrize("policy", sorted(shard_policy_registry.names()))
    def test_capacity_balanced(self, policy):
        partition = partition_substrate(
            make_citta_studi(), 3, policy=policy, seed=0
        )
        summary = partition.summary()
        assert summary["capacity_imbalance"] < 2.0

    def test_deterministic_given_seed(self):
        substrate = make_citta_studi()
        first = partition_substrate(substrate, 3, seed=5)
        second = partition_substrate(substrate, 3, seed=5)
        assert dict(first.assignment) == dict(second.assignment)
        assert first.boundary_links == second.boundary_links

    def test_k1_is_the_whole_substrate(self):
        substrate = make_citta_studi()
        partition = partition_substrate(substrate, 1)
        region = partition.shards[0].substrate
        assert list(region.nodes) == list(substrate.nodes)
        assert list(region.links) == list(substrate.links)
        assert partition.boundary_links == ()
        assert partition.neighbor_shards(0) == ()

    def test_invalid_shard_counts(self):
        substrate = make_citta_studi()
        with pytest.raises(ShardError, match="at least one shard"):
            partition_substrate(substrate, 0)
        with pytest.raises(ShardError, match="cannot cut"):
            partition_substrate(substrate, substrate.num_nodes + 1)

    def test_unknown_policy_and_unknown_node(self):
        substrate = make_citta_studi()
        with pytest.raises(SimulationError, match="shard policy"):
            partition_substrate(substrate, 2, policy="no-such-policy")
        partition = partition_substrate(substrate, 2)
        with pytest.raises(ShardError, match="not part of substrate"):
            partition.shard_of("no-such-node")

    def test_fragmented_policy_is_rejected(self, line_substrate):
        # Assign the two endpoints of the line to shard 0 and the middle
        # to shard 1: shard 0 is disconnected, a contract violation.
        @register_shard_policy("test-fragmented", description="test-only")
        def fragmented(substrate, num_shards, rng):
            nodes = list(substrate.nodes)
            return {
                node: (0 if node in (nodes[0], nodes[-1]) else 1)
                for node in nodes
            }

        try:
            with pytest.raises(ShardError, match="fragmented"):
                partition_substrate(
                    line_substrate, 2, policy="test-fragmented"
                )
        finally:
            shard_policy_registry.unregister("test-fragmented")

    def test_incomplete_coverage_is_rejected(self, line_substrate):
        @register_shard_policy("test-partial", description="test-only")
        def partial(substrate, num_shards, rng):
            nodes = list(substrate.nodes)
            return {nodes[0]: 0, nodes[1]: 1}

        try:
            with pytest.raises(ShardError, match="broke coverage"):
                partition_substrate(line_substrate, 2, policy="test-partial")
        finally:
            shard_policy_registry.unregister("test-partial")

    def test_tier_aware_gives_every_shard_core(self):
        substrate = make_citta_studi()
        partition = partition_substrate(substrate, 2, policy="tier-aware")
        cores = set(substrate.core_nodes)
        for region in partition.shards:
            assert cores & set(region.nodes)


# -- boundary ledger -----------------------------------------------------------


class TestBoundaryLedger:
    LINK = ("a", "b")

    def _ledger(self, capacity=10.0):
        return BoundaryLedger({self.LINK: capacity})

    def test_reserve_holds_capacity_until_abort(self):
        ledger = self._ledger()
        token = ledger.try_reserve(self.LINK, 6.0)
        assert token is not None
        assert ledger.residual(self.LINK) == pytest.approx(4.0)
        ledger.abort(token)
        assert ledger.residual(self.LINK) == pytest.approx(10.0)
        assert (ledger.reserved, ledger.aborted) == (1, 1)
        assert ledger.outstanding == 0

    def test_reserve_refuses_overload(self):
        ledger = self._ledger()
        assert ledger.try_reserve(self.LINK, 10.5) is None
        token = ledger.try_reserve(self.LINK, 8.0)
        assert ledger.try_reserve(self.LINK, 3.0) is None
        ledger.abort(token)
        assert ledger.try_reserve(self.LINK, 3.0) is not None

    def test_commit_releases_at_departure_slot(self):
        ledger = self._ledger()
        token = ledger.try_reserve(self.LINK, 7.0)
        ledger.commit(token, release_slot=5)
        assert ledger.outstanding == 1
        assert ledger.advance(4) == 0
        assert ledger.residual(self.LINK) == pytest.approx(3.0)
        assert ledger.advance(5) == 1
        assert ledger.residual(self.LINK) == pytest.approx(10.0)
        assert (ledger.committed, ledger.released) == (1, 1)
        assert ledger.outstanding == 0

    def test_two_phase_misuse_raises(self):
        ledger = self._ledger()
        with pytest.raises(ShardError, match="must be positive"):
            ledger.try_reserve(self.LINK, 0.0)
        with pytest.raises(ShardError, match="unknown reservation"):
            ledger.commit(99, release_slot=1)
        token = ledger.try_reserve(self.LINK, 1.0)
        ledger.commit(token, release_slot=3)
        with pytest.raises(ShardError, match="already committed"):
            ledger.commit(token, release_slot=4)
        with pytest.raises(ShardError, match="already committed"):
            ledger.abort(token)
        with pytest.raises(ShardError, match="not a boundary link"):
            ledger.residual(("x", "y"))


# -- plan restriction ----------------------------------------------------------


class TestRestrictPlan:
    def test_whole_substrate_restriction_is_identity(self, test_scenario):
        region = partition_substrate(test_scenario.substrate, 1).shards[0]
        restricted = restrict_plan(test_scenario.plan, region.substrate)
        assert restricted.classes.keys() == test_scenario.plan.classes.keys()
        assert restricted.objective == test_scenario.plan.objective

    def test_restriction_drops_foreign_ingresses_and_patterns(
        self, test_scenario
    ):
        partition = partition_substrate(test_scenario.substrate, 2)
        region = partition.shards[0].substrate
        restricted = restrict_plan(test_scenario.plan, region)
        assert restricted.classes  # something survives on half the net
        for (app, ingress), class_plan in restricted.classes.items():
            assert ingress in region.nodes
            for pattern in class_plan.patterns:
                assert all(
                    node in region.nodes
                    for node in pattern.node_map.values()
                )
                assert all(
                    link in region.links
                    for path in pattern.link_paths.values()
                    for link in path
                )


# -- K=1 bit-identity ----------------------------------------------------------


class TestBitIdentity:
    def test_k1_sharded_equals_unsharded(self):
        config = _config()
        experiment = Experiment(config).algorithms("QUICKG")
        oracle = experiment.serve(seed=3)
        expected = _drive(oracle, oracle.scenario, config.online_slots, 3)

        sharded = experiment.serve(seed=3, shards=1, shard_workers="inline")
        with sharded:
            actual = _drive(
                sharded, sharded.scenario, config.online_slots, 3
            )
        assert actual == expected

    def test_inline_and_process_workers_agree(self):
        config = _config()
        experiment = Experiment(config).algorithms("QUICKG")
        streams = []
        for workers in ("inline", "process"):
            service = experiment.serve(
                seed=3, shards=2, shard_workers=workers
            )
            with service:
                streams.append(
                    _drive(
                        service, service.scenario, config.online_slots, 3
                    )
                )
        assert streams[0] == streams[1]


# -- cross-shard two-phase resolution ------------------------------------------


class TestCrossShard:
    def _saturating_requests(self, service, count=40, duration=3):
        """Arrivals at one shard-0 edge ingress sized to overflow it."""
        scenario = service.scenario
        region = service.partition.shards[0]
        ingress = min(
            node
            for node in region.nodes
            if node not in scenario.substrate.core_nodes
        )
        app = scenario.apps[0]
        total_vnf_size = sum(vnf.size for vnf in app.vnfs)
        demand = region.capacity / (total_vnf_size * 15)
        return [
            Request(
                arrival=0,
                id=1000 + i,
                app_index=0,
                ingress=ingress,
                demand=demand,
                duration=duration,
            )
            for i in range(count)
        ]

    def test_two_phase_commit_and_ledger_account(self):
        config = _config()
        service = (
            Experiment(config)
            .algorithms("QUICKG")
            .serve(seed=0, shards=2, shard_workers="inline")
        )
        with service:
            requests = self._saturating_requests(service)
            decisions = service.offer_many(requests)
            stats = service.cross_shard_stats()
            assert stats["attempts"] > 0
            assert stats["commits"] > 0
            assert stats["commits"] + stats["aborts"] == stats["attempts"]
            assert stats["ledger_reserved"] == (
                stats["ledger_committed"] + stats["ledger_aborted"]
            )
            # Every committed route rescued a home rejection.
            rescued = {route["request"] for route in stats["routes"]}
            for decision in decisions:
                if decision.request.id in rescued:
                    assert decision.accepted
                    assert service.shard_of(decision.request.ingress) == 0
            # Departures release every committed hold.
            service.advance_to(config.online_slots)
            final = service.cross_shard_stats()
            assert final["ledger_released"] == final["ledger_committed"]
            assert service.ledger.outstanding == 0


# -- merged metrics ------------------------------------------------------------


class TestMetrics:
    def test_k1_merged_metrics_match_single_shard_oracle(self):
        config = _config()
        experiment = Experiment(config).algorithms("QUICKG")
        oracle = experiment.serve(seed=3)
        _drive(oracle, oracle.scenario, config.online_slots, 3)
        expected = oracle.metrics.latest

        sharded = experiment.serve(seed=3, shards=1, shard_workers="inline")
        with sharded:
            _drive(sharded, sharded.scenario, config.online_slots, 3)
            merged = sharded.metrics()

        assert merged.slot == expected.slot
        assert merged.offers == expected.offers
        assert merged.accepted == expected.accepted
        assert merged.rejected == expected.rejected
        assert merged.shed == expected.shed
        assert merged.disrupted == expected.disrupted
        assert merged.preempted == expected.preempted
        assert merged.utilization == pytest.approx(expected.utilization)
        assert merged.acceptance_rate == pytest.approx(
            expected.acceptance_rate
        )
        assert merged.rolling_acceptance_rate == pytest.approx(
            expected.rolling_acceptance_rate
        )

    def test_k2_counters_sum_over_shards(self):
        config = _config()
        service = (
            Experiment(config)
            .algorithms("QUICKG")
            .serve(seed=3, shards=2, shard_workers="inline")
        )
        with service:
            decisions = _drive(
                service, service.scenario, config.online_slots, 3
            )
            merged = service.metrics()
            commits = service.cross_shard_stats()["commits"]
        # A cross-shard rescue shows up per-shard as one home rejection
        # plus one remote offer/accept; the frontend log is the truth.
        assert merged.offers == len(decisions) + commits
        accepted = sum(1 for d in decisions if d.accepted)
        assert merged.accepted == accepted
        assert merged.rejected == merged.offers - merged.accepted


# -- failover ------------------------------------------------------------------


def _line_checkpoint(substrate, app) -> bytes:
    """A slot-2 checkpoint of a QUICKG service on the 4-node line."""
    service = EmbedderService(
        SimulationSession(make_quickg(substrate, [app]), (), 6)
    )
    service.advance_to(2)
    return service.snapshot().to_bytes()


class TestFailover:
    @pytest.mark.parametrize(
        "admission",
        [
            {"admission": "always"},
            {
                "admission": "token-bucket",
                "admission_params": {"rate": 2, "burst": 4},
            },
        ],
        ids=["always", "token-bucket"],
    )
    def test_kill_and_restore_is_bit_identical(self, admission):
        """Decisions *and* merged metrics equal the undisturbed run's:
        the spare inherits the dead worker's admission state."""
        config = _config()
        experiment = Experiment(config).algorithms("QUICKG")
        seed = 11
        # A deterministic pseudo-random kill slot inside the horizon.
        kill_slot = 2 + seed % 5
        kill_shard = seed % 2

        undisturbed = experiment.serve(
            seed=seed, shards=2, shard_workers="process", **admission
        )
        with undisturbed:
            expected = _drive(
                undisturbed, undisturbed.scenario, config.online_slots, seed
            )
            expected_metrics = undisturbed.metrics()

        service = experiment.serve(
            seed=seed, shards=2, shard_workers="process", **admission
        )
        with service:
            rng = child_rng(make_rng(seed), "serve-traffic")
            actual = []
            killed = False
            for slot, batch in poisson_offers(
                service.scenario, config.online_slots, rng
            ):
                if slot == kill_slot and not killed:
                    service.kill_worker(kill_shard)
                    assert not service.worker_alive(kill_shard)
                    service.restore_worker(kill_shard)
                    assert service.worker_alive(kill_shard)
                    killed = True
                actual.extend(service.offer_many(batch))
                service.advance_to(slot + 1)
            assert killed
            result = service.finish()
            merged = service.metrics()
        assert actual == expected
        assert result.decisions == tuple(expected)
        for counter in ("offers", "accepted", "rejected", "shed"):
            assert getattr(merged, counter) == getattr(
                expected_metrics, counter
            ), counter
        assert (merged.shed > 0) == (admission["admission"] != "always")

    def test_dead_worker_refuses_offers(self):
        config = _config()
        service = (
            Experiment(config)
            .algorithms("QUICKG")
            .serve(seed=3, shards=2, shard_workers="process")
        )
        with service:
            region = service.partition.shards[1]
            service.kill_worker(1)
            with pytest.raises(ShardError, match="dead"):
                service.offer(
                    Request(
                        arrival=0,
                        id=1,
                        app_index=0,
                        ingress=region.nodes[0],
                        demand=1.0,
                        duration=2,
                    )
                )
            service.restore_worker(1)
            assert service.offer(
                Request(
                    arrival=0,
                    id=2,
                    app_index=0,
                    ingress=region.nodes[0],
                    demand=1.0,
                    duration=2,
                )
            )

    @pytest.mark.parametrize("refusing", [0, 1])
    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_refused_broadcast_leaves_no_reply_behind(self, workers, refusing):
        """A broadcast one worker refuses still reads every other reply:
        the next command gets its own answer, not a stale one, and the
        run carries on exactly like one that was never disturbed."""
        config = _config()
        experiment = Experiment(config).algorithms("QUICKG")

        def run(disturb: bool):
            service = experiment.serve(
                seed=3, shards=2, shard_workers=workers
            )
            with service:
                rng = child_rng(make_rng(3), "serve-traffic")
                decisions = []
                for slot, batch in poisson_offers(
                    service.scenario, config.online_slots, rng
                ):
                    if slot == 1:
                        # Open slot 1 on the refusing shard first.
                        first = [
                            r for r in batch
                            if service.shard_of(r.ingress) == refusing
                        ]
                        assert first
                        decisions.extend(service.offer_many(first))
                        if disturb:
                            with pytest.raises(
                                (ShardError, SimulationError),
                                match="slot 1 is open",
                            ):
                                service.checkpoint_workers()
                            assert service.metrics().offers >= len(decisions)
                        batch = [r for r in batch if r not in first]
                    decisions.extend(service.offer_many(batch))
                    service.advance_to(slot + 1)
                return decisions, service.metrics()

        expected, expected_metrics = run(disturb=False)
        actual, metrics = run(disturb=True)
        assert actual == expected
        for counter in ("offers", "accepted", "rejected", "shed"):
            assert getattr(metrics, counter) == getattr(
                expected_metrics, counter
            ), counter

    @pytest.mark.parametrize(
        "workers, raising",
        [("inline", 1), ("inline", 0), ("process", 0), ("process", 1)],
    )
    def test_failed_sub_batch_leaves_no_reply_behind(self, workers, raising):
        """One shard's sub-batch raises mid-``offer_many`` (an id offered
        again while still active). Every shard that took its sub-batch
        is read before the error is raised, so the commands after it —
        metrics, checkpoint, the next offer — get their own answers."""
        service = (
            Experiment(_config())
            .algorithms("QUICKG")
            .serve(seed=3, shards=2, shard_workers=workers)
        )
        with service:
            def request(rid: int, shard: int) -> Request:
                return Request(
                    arrival=0, id=rid, app_index=0, demand=1.0, duration=3,
                    ingress=service.partition.shards[shard].nodes[0],
                )

            with pytest.raises(
                (ShardError, SimulationError), match="processed twice"
            ):
                service.offer_many([
                    request(1, 0), request(2, 1),
                    request(3, raising), request(3, raising),
                ])
            # The failed sub-batch records nothing; the other shard's
            # one offer counts, unless an inline shard 0 raised before
            # shard 1 was sent anything.
            took = 0 if (workers, raising) == ("inline", 0) else 1
            assert service.metrics().offers == took
            service.advance_to(1)
            service.checkpoint_workers()
            for shard, payload in enumerate(service._checkpoints):
                assert read_checkpoint(shard, payload).clock == 1
            for shard in (0, 1):
                decision = service.offer(
                    dataclasses.replace(request(10 + shard, shard), arrival=1)
                )
                assert decision.request.id == 10 + shard
            assert service.metrics().offers == took + 2

    def test_restore_guards(self):
        config = _config()
        experiment = Experiment(config).algorithms("QUICKG")

        # Stale checkpoint: with checkpointing disabled, the only
        # checkpoint is the slot-0 boot image.
        stale = experiment.serve(
            seed=3, shards=2, shard_workers="inline", checkpoint_every=0
        )
        with stale:
            stale.advance_to(3)
            with pytest.raises(ShardError, match="checkpoint is at slot 0"):
                stale.restore_worker(0)

        # Mid-slot restore would drop offers the shard already took.
        service = experiment.serve(
            seed=3, shards=2, shard_workers="inline"
        )
        with service:
            region = service.partition.shards[0]
            service.offer(
                Request(
                    arrival=0,
                    id=1,
                    app_index=0,
                    ingress=region.nodes[0],
                    demand=1.0,
                    duration=2,
                )
            )
            with pytest.raises(ShardError, match="already took offers"):
                service.restore_worker(0)
            # An inline worker cannot be killed at all.
            with pytest.raises(ShardError, match="cannot be"):
                service.kill_worker(0)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda good: pickle.dumps({"not": "a checkpoint"}),
            lambda good: b"",
            lambda good: good[: len(good) // 2],
            lambda good: b"\x00not a pickle at all",
        ],
        ids=["foreign", "empty", "truncated", "garbage"],
    )
    @pytest.mark.parametrize("worker", [InlineShardWorker, ProcessShardWorker])
    def test_worker_boot_rejects_bad_payload(
        self, worker, corrupt, line_substrate, chain_app, monkeypatch
    ):
        """One envelope: a worker boots from ``service.snapshot()``'s
        bytes, and anything else is refused from the header — before a
        body is unpickled or a child is spawned."""
        good = _line_checkpoint(line_substrate, chain_app)
        booted = InlineShardWorker(0, good)
        assert booted.service.current_slot == 2
        assert SessionSnapshot.from_bytes(booted.call("checkpoint")).clock == 2

        def no_unpickling(*args, **kwargs):
            raise AssertionError("a refused payload's body was unpickled")

        monkeypatch.setattr(pickle, "loads", no_unpickling)
        with pytest.raises(ShardError, match="shard 0's checkpoint"):
            worker(0, corrupt(good))

    def test_restore_worker_refuses_corrupt_checkpoint(self):
        service = (
            Experiment(_config())
            .algorithms("QUICKG")
            .serve(seed=3, shards=2, shard_workers="inline")
        )
        with service:
            service.advance_to(2)
            good = service._checkpoints[1]
            service._checkpoints[1] = good[:-100]
            with pytest.raises(ShardError, match="truncated"):
                service.restore_worker(1)
            service._checkpoints[1] = good
            service.restore_worker(1)
            assert service._workers[1].service.current_slot == 2


# -- facade + lifecycle --------------------------------------------------------


class TestFacade:
    def test_serve_guards(self):
        experiment = Experiment(_config()).algorithms("QUICKG")
        with pytest.raises(SimulationError, match="preload_trace"):
            experiment.serve(shards=2, preload_trace=True)
        with pytest.raises(SimulationError, match="max_pending"):
            experiment.serve(shards=2, max_pending=4)
        with pytest.raises(SimulationError, match="event schedules"):
            experiment.events("link-flap").serve(shards=2)

    def test_closed_service_refuses_everything(self):
        service = (
            Experiment(_config())
            .algorithms("QUICKG")
            .serve(seed=3, shards=2, shard_workers="inline")
        )
        service.close()
        service.close()  # idempotent
        with pytest.raises(ShardError, match="closed"):
            service.tick()
        with pytest.raises(ShardError, match="closed"):
            service.metrics()

    def test_offer_ordering_guards(self):
        service = (
            Experiment(_config())
            .algorithms("QUICKG")
            .serve(seed=3, shards=2, shard_workers="inline")
        )
        with service:
            region = service.partition.shards[0]

            def request(rid, arrival):
                return Request(
                    arrival=arrival,
                    id=rid,
                    app_index=0,
                    ingress=region.nodes[0],
                    demand=1.0,
                    duration=2,
                )

            service.advance_to(4)
            with pytest.raises(SimulationError, match="already at slot 4"):
                service.offer(request(1, arrival=2))
            with pytest.raises(SimulationError, match="horizon"):
                service.offer(request(2, arrival=99))

    def test_result_replaces_request_on_cross_shard_accept(self):
        # dataclasses.replace on a Decision keeps all embedding fields;
        # pin the contract the frontend relies on.
        from repro.core.olive import Decision

        base = Decision(
            request=Request(
                arrival=0, id=1, app_index=0, ingress="a",
                demand=1.0, duration=2,
            ),
            accepted=True,
        )
        other = Request(
            arrival=0, id=1, app_index=0, ingress="b",
            demand=1.0, duration=2,
        )
        rewritten = dataclasses.replace(base, request=other)
        assert rewritten.request.ingress == "b"
        assert rewritten.accepted
