"""Integration tests: end-to-end pipeline invariants and paper-shape checks.

These run the full Alg. 1 pipeline (trace → aggregation → PLAN-VNE → online
embedding) on the small shared scenario and assert the properties the paper
claims, at test scale:

* feasibility: the substrate capacity constraints (Eq. 15/18) hold at every
  slot, reconstructed independently from the recorded decisions;
* plan quality: OLIVE's rejection rate is no worse than QUICKG's;
* determinism: a seed fully determines the simulation.
"""

import numpy as np
import pytest

from repro.api import run_single
from repro.core.embedding import compute_loads
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario, make_algorithm
from repro.sim.engine import simulate
from repro.sim.metrics import rejection_rate


def _verify_capacity_feasibility(scenario, result):
    """Recompute per-slot loads from decisions; assert Eq. 15 at every slot.

    The reconstruction is independent of the algorithms' own residual
    bookkeeping, so a bookkeeping bug cannot hide itself.
    """
    num_slots = result.num_slots
    preempted_at = {r.id: t for r, t in result.preemptions}
    node_load = {v: np.zeros(num_slots) for v in scenario.substrate.nodes}
    link_load = {l: np.zeros(num_slots) for l in scenario.substrate.links}
    for decision in result.decisions:
        if not decision.accepted or decision.embedding is None:
            continue
        request = decision.request
        start = request.arrival
        stop = min(request.departure, num_slots)
        stop = min(stop, preempted_at.get(request.id, num_slots))
        if start >= stop:
            continue
        loads = compute_loads(
            scenario.apps[request.app_index],
            request.demand,
            decision.embedding,
            scenario.substrate,
            scenario.efficiency,
        )
        for node, load in loads.nodes.items():
            node_load[node][start:stop] += load
        for link, load in loads.links.items():
            link_load[link][start:stop] += load
    tolerance = 1.000001
    for node, series in node_load.items():
        capacity = scenario.substrate.node_capacity(node)
        assert series.max() <= capacity * tolerance, (
            f"node {node} overloaded: {series.max()} > {capacity}"
        )
    for link, series in link_load.items():
        capacity = scenario.substrate.link_capacity(link)
        assert series.max() <= capacity * tolerance, (
            f"link {link} overloaded: {series.max()} > {capacity}"
        )


@pytest.fixture(scope="module")
def overloaded_run():
    """A 120 %-utilization run where capacity pressure is real."""
    config = ExperimentConfig.test(utilization=1.2)
    scenario, results = run_single(
        config, seed=3, algorithms=("OLIVE", "QUICKG", "FULLG")
    )
    return config, scenario, results


class TestFeasibility:
    @pytest.mark.parametrize("name", ["OLIVE", "QUICKG", "FULLG"])
    def test_capacity_never_violated(self, overloaded_run, name):
        _, scenario, results = overloaded_run
        _verify_capacity_feasibility(scenario, results[name])

    def test_unsplittable_embeddings(self, overloaded_run):
        """Each accepted request maps every VNF to exactly one node."""
        _, scenario, results = overloaded_run
        for decision in results["OLIVE"].decisions:
            if not decision.accepted:
                continue
            app = scenario.apps[decision.request.app_index]
            assert set(decision.embedding.node_map) == {
                vnf.id for vnf in app.vnfs
            }

    def test_theta_pinned_to_ingress(self, overloaded_run):
        """Eq. 11: the root is always mapped to the request's ingress."""
        _, scenario, results = overloaded_run
        for name in ("OLIVE", "QUICKG", "FULLG"):
            for decision in results[name].decisions:
                if decision.accepted:
                    assert (
                        decision.embedding.node_map[0]
                        == decision.request.ingress
                    )

    def test_link_paths_connect_endpoints(self, overloaded_run):
        _, scenario, results = overloaded_run
        for decision in results["OLIVE"].decisions:
            if not decision.accepted:
                continue
            app = scenario.apps[decision.request.app_index]
            embedding = decision.embedding
            for vlink in app.links:
                node = embedding.node_map[vlink.tail]
                for link in embedding.link_paths[vlink.key]:
                    a, b = link
                    assert node in (a, b), "path is not contiguous"
                    node = b if node == a else a
                assert node == embedding.node_map[vlink.head]


class TestPaperShape:
    def test_olive_beats_quickg_on_rejection(self, overloaded_run):
        config, scenario, results = overloaded_run
        window = config.measure_window
        olive = rejection_rate(results["OLIVE"], window)
        quickg = rejection_rate(results["QUICKG"], window)
        assert olive <= quickg + 1e-9

    def test_only_olive_produces_planned_allocations(self, overloaded_run):
        _, _, results = overloaded_run
        assert any(d.planned for d in results["OLIVE"].decisions)
        assert not any(d.planned for d in results["QUICKG"].decisions)

    def test_preemptions_only_hit_non_planned(self, overloaded_run):
        """A preempted request's original decision was never planned."""
        _, _, results = overloaded_run
        result = results["OLIVE"]
        for request, _slot in result.preemptions:
            decision = result.decision_by_id[request.id]
            assert not decision.planned


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        config = ExperimentConfig.test(utilization=1.2)
        outcomes = []
        for _ in range(2):
            scenario = build_scenario(config, seed=11)
            algorithm = make_algorithm("OLIVE", scenario)
            result = simulate(
                algorithm, scenario.online_requests(), config.online_slots
            )
            outcomes.append(
                [
                    (d.request.id, d.accepted, d.planned, d.borrowed)
                    for d in result.decisions
                ]
            )
        assert outcomes[0] == outcomes[1]


class TestConformance:
    def test_online_demand_conforms_to_history(self, test_scenario):
        """Same process for both phases → the paper's conformance holds."""
        from repro.stats.aggregate import class_demand_series
        from repro.stats.bootstrap import demand_conforms
        from repro.utils.rng import make_rng

        config = test_scenario.config
        history = class_demand_series(
            test_scenario.trace.history_requests(), config.history_slots
        )
        online = class_demand_series(
            test_scenario.trace.online_requests(), config.online_slots
        )
        # Check the busiest class (most observations → sharpest test).
        key = max(history, key=lambda k: history[k].sum())
        if key in online:
            # Wide tolerance: the test trace is short, so we only require
            # the conformance machinery to run and produce a verdict.
            verdict = demand_conforms(
                online[key], history[key], rng=make_rng(0)
            )
            assert verdict in (True, False)
