"""Per-decision pins for NODERANK and FULLG.

No golden file pins NODERANK's decisions, and the fig09/fig10 goldens
pin FULLG's only as aggregate metrics. Each case runs one small
overloaded scenario (the test config at utilization 1.4) under the
``link-flap`` profile with the ``reroute`` policy, so failed links
strand allocations and the algorithm re-embeds them. The digest covers
every decision — id, accepted, node map, link paths, preempted ids —
and, at every slot end, the node map and link paths of each active
allocation, where the re-embeddings show.

The expected digests were recorded with the dict-keyed searches both
baselines used before they routed through
:func:`~repro.utils.paths.cheapest_host_search`. Node and link ids are
strings and no float is digested, so the values hold on every
supported Python version.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import resolve_events
from repro.baselines.fullg import FullGAlgorithm
from repro.baselines.noderank import NodeRankAlgorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.sim.session import SimulationSession

PINS = {
    NodeRankAlgorithm: (
        "6742dada9330f21163b2454bc7a29a3f34c8aed282dc265402ba747641a917b9"
    ),
    FullGAlgorithm: (
        "e16d13b8a8ad90a43fae2ca5564393f4c0202f3f4cc62dc7bb48e876e4702179"
    ),
}


def _embedding_key(embedding):
    if embedding is None:
        return None
    return (
        sorted(embedding.node_map.items()),
        sorted(embedding.link_paths.items()),
    )


@pytest.mark.parametrize(
    "algorithm_class", list(PINS), ids=lambda cls: cls.__name__
)
def test_decisions_match_pin(algorithm_class):
    config = ExperimentConfig.test(utilization=1.4)
    scenario = build_scenario(config, seed=21)
    schedule = resolve_events("link-flap", scenario, 21, "reroute")
    algorithm = algorithm_class(
        scenario.substrate, scenario.apps, scenario.efficiency
    )
    session = SimulationSession(
        algorithm, scenario.online_requests(), config.online_slots,
        events=schedule,
    )
    digest = hashlib.sha256()
    embedded: dict[int, object] = {}
    rerouted = set()
    for t in range(config.online_slots):
        session.step()
        for request_id, row in algorithm.active.items():
            key = _embedding_key(row.embedding)
            if embedded.get(request_id, key) != key:
                rerouted.add(request_id)
            embedded[request_id] = key
            digest.update(repr((t, request_id, key)).encode())
    for decision in session.result().decisions:
        digest.update(repr((
            decision.request.id,
            decision.accepted,
            _embedding_key(decision.embedding),
            [request.id for request in decision.preempted],
        )).encode())
    assert rerouted, "the flaps must strand and re-embed something"
    assert digest.hexdigest() == PINS[algorithm_class]
