"""Decision-equivalence: the incremental embedding fast path must produce
bit-identical :class:`~repro.sim.engine.SimulationResult` values to the
pre-fast-path scalar engine (:mod:`repro.core.greedy_reference`).

These tests are the enforcement half of the fast-path contract: whole
simulations run twice — once through the indexed path, once through the
frozen reference — and every decision, embedding, preemption
and per-slot metric array must match exactly (``==`` on floats, not
``approx``). ``benchmarks/perf`` measures the speed side of the same
contract, and repeats the whole-run comparison at benchmark scale as its
``--check`` row "fast path == use_fast_greedy=False reference".
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.quickg import make_quickg
from repro.core import greedy as greedy_module
from repro.core import greedy_reference
from repro.core.embedding import compute_loads
from repro.core.greedy import GreedyContext, greedy_embed
from repro.core.olive import OliveAlgorithm
from repro.core.residual import ResidualState
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.serve import EmbedderService
from repro.sim.engine import SimulationResult, simulate
from repro.sim.session import SimulationSession
from repro.substrate.network import SubstrateNetwork


def assert_results_identical(
    fast: SimulationResult, reference: SimulationResult
) -> None:
    """Bitwise equality of everything except wall-clock runtime."""
    assert fast.algorithm_name == reference.algorithm_name
    assert fast.num_slots == reference.num_slots
    assert fast.num_requests == reference.num_requests
    assert len(fast.decisions) == len(reference.decisions)
    for ours, theirs in zip(fast.decisions, reference.decisions):
        assert ours == theirs  # Decision equality covers the embedding
    assert fast.preemptions == reference.preemptions
    assert np.array_equal(fast.requested_demand, reference.requested_demand)
    assert np.array_equal(fast.allocated_demand, reference.allocated_demand)
    assert np.array_equal(fast.resource_cost, reference.resource_cost)


def _run_both(scenario, make_algorithm):
    online = scenario.online_requests()
    slots = scenario.config.online_slots
    fast = simulate(make_algorithm(True), online, slots)
    reference = simulate(make_algorithm(False), online, slots)
    return fast, reference


def _make(engine: str, scenario, substrate=None, **kwargs):
    substrate = substrate or scenario.substrate
    if engine == "OLIVE":
        return OliveAlgorithm(
            substrate, scenario.apps, scenario.plan,
            efficiency=scenario.efficiency, **kwargs,
        )
    return make_quickg(substrate, scenario.apps, scenario.efficiency, **kwargs)


def _by_slot(requests) -> dict[int, list]:
    by_slot: dict[int, list] = {}
    for request in sorted(requests):
        by_slot.setdefault(request.arrival, []).append(request)
    return by_slot


def _count_dijkstra_runs(monkeypatch) -> list[int]:
    """Wrap the fast path's shortest-path search; ``[0]`` holds the count."""
    runs = [0]
    search = greedy_module.cheapest_host_search

    def counted(*args):
        runs[0] += 1
        return search(*args)

    monkeypatch.setattr(greedy_module, "cheapest_host_search", counted)
    return runs


class TestEngineEquivalence:
    @pytest.mark.parametrize("utilization", [0.6, 1.0, 1.4])
    def test_quickg_bit_identical(self, utilization):
        scenario = build_scenario(
            ExperimentConfig.test(utilization=utilization), seed=1,
            with_plan=False,
        )
        fast, reference = _run_both(
            scenario,
            lambda fast_greedy: _make(
                "QUICKG", scenario, use_fast_greedy=fast_greedy
            ),
        )
        assert_results_identical(fast, reference)

    @pytest.mark.parametrize("utilization", [1.0, 1.4])
    def test_olive_bit_identical(self, utilization):
        scenario = build_scenario(
            ExperimentConfig.test(utilization=utilization), seed=2
        )
        fast, reference = _run_both(
            scenario,
            lambda fast_greedy: _make(
                "OLIVE", scenario, use_fast_greedy=fast_greedy
            ),
        )
        assert_results_identical(fast, reference)

    def test_olive_iris_bit_identical(self):
        scenario = build_scenario(
            ExperimentConfig.test(topology="Iris"), seed=3
        )
        fast, reference = _run_both(
            scenario,
            lambda fast_greedy: _make(
                "OLIVE", scenario, use_fast_greedy=fast_greedy
            ),
        )
        assert_results_identical(fast, reference)

    def test_gpu_two_host_bit_identical(self):
        """The generalized two-group greedy (GPU scenario, Fig. 10)."""
        scenario = build_scenario(
            ExperimentConfig.test(gpu_scenario=True, app_mix="gpu"), seed=4
        )
        fast, reference = _run_both(
            scenario,
            lambda fast_greedy: _make(
                "OLIVE", scenario, use_fast_greedy=fast_greedy
            ),
        )
        assert_results_identical(fast, reference)

    @pytest.mark.parametrize("engine", ["OLIVE", "QUICKG"])
    @pytest.mark.parametrize(
        "arrivals_per_node", [0.25, 10.0], ids=["sparse", "dense"]
    )
    def test_arrival_rate_regimes_bit_identical(
        self, engine, arrivals_per_node
    ):
        """~7 large requests per slot and ~230 small ones, same
        utilization: residual churn between two routes from one ingress
        differs by orders of magnitude."""
        scenario = build_scenario(
            ExperimentConfig.test(
                utilization=1.2, arrivals_per_node=arrivals_per_node
            ),
            seed=3, with_plan=engine == "OLIVE",
        )
        fast, reference = _run_both(
            scenario,
            lambda fast_greedy: _make(
                engine, scenario, use_fast_greedy=fast_greedy
            ),
        )
        assert_results_identical(fast, reference)

    def test_heterogeneous_link_costs_bit_identical(self):
        """Mixed link costs make route choice depend on more than hop
        count; fast and reference must still pick the same trees."""
        scenario = build_scenario(
            ExperimentConfig.test(utilization=2.0), seed=7, with_plan=False
        )
        base = scenario.substrate
        mixed = SubstrateNetwork(
            name=base.name,
            nodes=dict(base.nodes),
            links={
                link: dataclasses.replace(
                    attrs, cost=attrs.cost * (1.0 + 0.75 * (i % 3))
                )
                for i, (link, attrs) in enumerate(base.links.items())
            },
        )
        fast, reference = _run_both(
            scenario,
            lambda fast_greedy: _make(
                "QUICKG", scenario, substrate=mixed,
                use_fast_greedy=fast_greedy,
            ),
        )
        assert {d.accepted for d in fast.decisions} == {True, False}
        assert_results_identical(fast, reference)


class TestBulkEqualsSequential:
    """The bulk shapes are the per-request loop, nothing else."""

    def test_session_bulk_paths_equal_sequential_process(self):
        """Preloaded arrivals (``begin_slot``, the batch engine's lane),
        ``process_many`` per slot, ``process`` per request, and the same
        slot runs served through ``EmbedderService.offer_many``:
        identical results, preemptions included, and identical final
        residuals."""
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.2), seed=3
        )
        online = scenario.online_requests()
        slots = scenario.config.online_slots
        by_slot = _by_slot(online)

        preloaded = SimulationSession(_make("OLIVE", scenario), online, slots)
        for _ in range(slots):
            preloaded.step()

        def drive(offer_slot):
            session = SimulationSession(_make("OLIVE", scenario), [], slots)
            for slot in range(slots):
                session.begin_slot()
                offer_slot(session, by_slot.get(slot, []))
                session.close_slot()
            return session

        bulk = drive(lambda session, run: session.process_many(run))
        sequential = drive(
            lambda session, run: [session.process(r) for r in run]
        )
        service = EmbedderService(
            SimulationSession(_make("OLIVE", scenario), [], slots)
        )
        for slot in range(slots):
            service.offer_many(by_slot.get(slot, []))
            service.advance_to(slot + 1)

        expected = sequential.result()
        assert expected.preemptions  # the run must exercise preemption
        for session in (preloaded, bulk, service.session):
            assert_results_identical(session.result(), expected)
            residual = session.algorithm.residual
            assert (
                residual.node_residual
                == sequential.algorithm.residual.node_residual
            )
            assert (
                residual.link_residual
                == sequential.algorithm.residual.link_residual
            )

    def test_algorithm_process_many_equals_process_loop(self):
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.2), seed=3, with_plan=False
        )
        run = _by_slot(scenario.online_requests())[0]
        bulk = _make("QUICKG", scenario)
        sequential = _make("QUICKG", scenario)
        assert bulk.process_many(run) == [sequential.process(r) for r in run]
        assert bulk.residual.link_residual == sequential.residual.link_residual
        assert bulk.residual.node_residual == sequential.residual.node_residual


class TestOneRoutePerEmbed:
    """GREEDYEMBED runs one shortest-path search per route it needs."""

    def test_single_group_embed_runs_one_dijkstra(self, monkeypatch):
        scenario = build_scenario(
            ExperimentConfig.test(topology="tiered-x:120"), seed=1,
            with_plan=False,
        )
        runs = _count_dijkstra_runs(monkeypatch)
        by_slot = _by_slot(scenario.online_requests())
        slots = scenario.config.online_slots
        algorithm = _make("QUICKG", scenario)
        session = SimulationSession(algorithm, [], slots)
        offered = 0
        for slot in range(6):
            session.begin_slot()
            decisions = session.process_many(by_slot[slot])
            session.close_slot()
            offered += len(decisions)
        stats = algorithm.greedy_context.stats()
        assert runs[0] == offered
        assert stats["direct_routes"] == offered
        # Mechanism guard: the fused search stops near the ingress. A
        # regression to whole-tree walking settles ~all 120 nodes per
        # route and fails this count, not a timing.
        per_route = stats["settled_nodes"] / stats["direct_routes"]
        assert 1 <= per_route < scenario.substrate.num_nodes / 2

    @staticmethod
    def _two_group_case():
        scenario = build_scenario(
            ExperimentConfig.test(gpu_scenario=True, app_mix="gpu"), seed=4,
            with_plan=False,
        )
        residual = ResidualState(scenario.substrate)
        context = GreedyContext(
            scenario.substrate, scenario.efficiency, residual
        )
        request, app, profile = next(
            (r, scenario.apps[r.app_index], profile)
            for r in scenario.online_requests()
            for profile in [context.profiles.get(scenario.apps[r.app_index])]
            if len(profile.groups) == 2
        )
        gpu_hosts = greedy_module._feasible_hosts(
            profile.group_load("gpu", request.demand), residual.node_array()
        )
        assert gpu_hosts
        return scenario, context, request, app, gpu_hosts

    def test_two_group_embed_runs_one_dijkstra_per_route(self, monkeypatch):
        """Ingress→generic, ingress→GPU, and one tree per GPU host."""
        scenario, context, request, app, gpu_hosts = self._two_group_case()
        runs = _count_dijkstra_runs(monkeypatch)
        assert context.embed(request, app) is not None
        assert runs[0] == len(gpu_hosts) + 2
        stats = context.stats()
        assert stats["direct_routes"] == runs[0]
        # Whole trees on an idle substrate: every route settles every node.
        assert stats["settled_nodes"] == runs[0] * scenario.substrate.num_nodes

    def test_two_group_embed_failing_node_check_never_routes(
        self, monkeypatch
    ):
        """No GPU node can host the GPU group → rejected before routing,
        exactly like the reference."""
        scenario, context, request, app, gpu_hosts = self._two_group_case()
        for node, _ in gpu_hosts:
            context.residual.nodes[context.index.node_ids[node]] = 0.0
        runs = _count_dijkstra_runs(monkeypatch)
        assert context.embed(request, app) is None
        assert greedy_reference.greedy_embed(
            request, app, scenario.substrate, scenario.efficiency,
            context.residual,
        ) is None
        assert runs[0] == 0
        assert context.stats()["direct_routes"] == 0


class TestGreedyEmbedEquivalence:
    """Per-call equivalence of greedy_embed against the reference, with
    allocations and releases interleaved between the calls."""

    def test_interleaved_allocations_and_releases_match_reference(self):
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.4), seed=5, with_plan=False
        )
        substrate = scenario.substrate
        efficiency = scenario.efficiency
        fast_res = ResidualState(substrate)
        ref_res = ResidualState(substrate)
        context = GreedyContext(substrate, efficiency, fast_res)

        committed: list = []
        checked = 0
        for request in scenario.online_requests()[:400]:
            app = scenario.apps[request.app_index]
            got = context.embed(request, app, allow_split_groups=False)
            expected = greedy_reference.greedy_embed(
                request, app, substrate, efficiency, ref_res,
                allow_split_groups=False,
            )
            if expected is None:
                assert got is None
                continue
            embedding, loads = got
            assert embedding == expected
            expected_loads = compute_loads(
                app, request.demand, expected, substrate, efficiency
            )
            assert loads.nodes == expected_loads.nodes
            assert loads.links == expected_loads.links
            # Allocate on both sides so residuals evolve identically;
            # every fifth accept also frees the oldest allocation, so
            # later routes see links come back.
            fast_res.allocate(loads)
            ref_res.allocate(expected_loads)
            committed.append((loads, expected_loads))
            checked += 1
            if checked % 5 == 0:
                fast_loads, ref_loads = committed.pop(0)
                fast_res.release(fast_loads)
                ref_res.release(ref_loads)
        assert checked > 50  # the scenario must actually exercise accepts
        assert fast_res.link_residual == ref_res.link_residual
        assert fast_res.node_residual == ref_res.node_residual

    def test_transient_context_wrapper_matches(self):
        scenario = build_scenario(
            ExperimentConfig.test(), seed=6, with_plan=False
        )
        residual = ResidualState(scenario.substrate)
        request = scenario.online_requests()[0]
        app = scenario.apps[request.app_index]
        embedding = greedy_embed(
            request, app, scenario.substrate, scenario.efficiency, residual
        )
        expected = greedy_reference.greedy_embed(
            request, app, scenario.substrate, scenario.efficiency,
            ResidualState(scenario.substrate),
        )
        assert embedding == expected
