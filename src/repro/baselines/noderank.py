"""NODERANK: topology-aware node-ranking embedding (Cheng et al. [16]).

A representative of the classic heuristic family the paper's related work
surveys: substrate nodes are ranked once per slot by a Markov-chain measure
combining free resources and connectivity (analogous to PageRank over the
capacity-weighted topology); virtual nodes are mapped greedily
best-rank-first onto the highest-ranked feasible substrate nodes, then
virtual links are routed on capacity-feasible shortest paths.

Included as an extra comparison point beyond the paper's three baselines:
it shares QUICKG's online per-request operation but spreads load by rank
instead of collocating by cost.
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import ROOT_ID, Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.ledger import LedgerAlgorithm
from repro.core.residual import ResidualState
from repro.substrate.network import NodeId, SubstrateNetwork
from repro.utils.paths import capacity_constrained_dijkstra, path_links
from repro.workload.request import Request

#: Damping factor of the rank Markov chain (PageRank convention).
DAMPING = 0.85
#: Convergence threshold and iteration cap for the power method.
RANK_TOLERANCE = 1e-8
RANK_MAX_ITERATIONS = 200


def compute_node_ranks(
    substrate: SubstrateNetwork, residual: ResidualState
) -> dict[NodeId, float]:
    """Resource-and-connectivity rank of every substrate node.

    Each node's intrinsic weight is its free CPU capacity times the free
    bandwidth of its incident links (Cheng et al.'s H value); the Markov
    chain then diffuses weight along links, so well-connected nodes near
    capacity-rich regions rank higher.
    """
    nodes = list(substrate.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    intrinsic = np.zeros(len(nodes))
    for i, v in enumerate(nodes):
        free_bandwidth = sum(
            residual.links[link] for _, link in substrate.adjacency[v]
        )
        intrinsic[i] = max(residual.nodes[v], 0.0) * max(free_bandwidth, 1.0)
    total = intrinsic.sum()
    if total <= 0:
        return {v: 0.0 for v in nodes}
    intrinsic /= total

    rank = intrinsic.copy()
    for _ in range(RANK_MAX_ITERATIONS):
        spread = np.zeros(len(nodes))
        for v in nodes:
            neighbors = substrate.adjacency[v]
            if not neighbors:
                continue
            share = rank[index[v]] / len(neighbors)
            for neighbor, _ in neighbors:
                spread[index[neighbor]] += share
        updated = (1.0 - DAMPING) * intrinsic + DAMPING * spread
        if np.abs(updated - rank).max() < RANK_TOLERANCE:
            rank = updated
            break
        rank = updated
    return {v: float(rank[index[v]]) for v in nodes}


class NodeRankAlgorithm(LedgerAlgorithm):
    """Per-request node-ranking embedder on the shared ledger.

    Ranks are refreshed lazily once per time slot — recomputing per request
    would dominate runtime without changing decisions much (the residual
    moves slowly within a slot).
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        efficiency: EfficiencyModel | None = None,
    ) -> None:
        super().__init__(substrate, apps, efficiency, "NODERANK")
        self._ranks: dict[NodeId, float] | None = None

    def on_slot(self, t: int) -> None:
        """Simulator hook: invalidate the rank cache each slot."""
        self._ranks = None

    def _ranked_nodes(self) -> list[NodeId]:
        if self._ranks is None:
            self._ranks = compute_node_ranks(self.substrate, self.residual)
        return sorted(self._ranks, key=self._ranks.get, reverse=True)

    def _rank_embed(
        self, request: Request, app: Application
    ) -> Embedding | None:
        """Greedy rank-first node mapping + shortest-path link mapping."""
        ranked = self._ranked_nodes()
        node_map: dict[int, NodeId] = {ROOT_ID: request.ingress}
        # Track node consumption during mapping so two virtual nodes do not
        # jointly overshoot one substrate node.
        provisional: dict[NodeId, float] = {}
        # Map virtual nodes largest-first (harder to place).
        for vnf in sorted(app.non_root_vnfs(), key=lambda v: -v.size):
            placed = False
            for candidate in ranked:
                attrs = self.substrate.nodes[candidate]
                eta = self.efficiency.node_eta(vnf, attrs)
                if eta is None:
                    continue
                load = request.demand * vnf.size * eta
                used = provisional.get(candidate, 0.0)
                if load + used <= self.residual.nodes[candidate]:
                    node_map[vnf.id] = candidate
                    provisional[candidate] = used + load
                    placed = True
                    break
            if not placed:
                return None
        # Link mapping: per-virtual-link capacity-feasible shortest path.
        link_paths: dict[tuple[int, int], tuple] = {}
        provisional_links: dict = {}
        for vlink in app.links:
            source = node_map[vlink.tail]
            target = node_map[vlink.head]
            if source == target:
                link_paths[vlink.key] = ()
                continue
            load = request.demand * vlink.size

            def feasible(link, load=load):
                used = provisional_links.get(link, 0.0)
                return self.residual.links[link] >= load + used

            dist, parent = capacity_constrained_dijkstra(
                self.substrate.adjacency,
                source,
                link_weight=lambda l: load * self.substrate.link_cost(l),
                link_feasible=feasible,
            )
            if target not in dist:
                return None
            path = tuple(path_links(parent, source, target))
            for link in path:
                provisional_links[link] = (
                    provisional_links.get(link, 0.0) + load
                )
            link_paths[vlink.key] = path
        return Embedding(node_map=node_map, link_paths=link_paths)

    def _embed(
        self, request: Request, app: Application
    ) -> tuple[Embedding, ElementLoads] | None:
        """The rank-first embedding, kept only if its joint loads fit."""
        embedding = self._rank_embed(request, app)
        if embedding is None:
            return None
        loads = compute_loads(
            app, request.demand, embedding, self.substrate, self.efficiency
        )
        return (embedding, loads) if self.residual.fits(loads) else None
