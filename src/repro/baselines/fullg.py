"""FULLG: exact per-request minimum-cost embedding (Sec. IV-A).

The paper's FULLG solves a full OFF-VNE ILP per request — "the best
possible greedy algorithm", evaluated only as a reference point because it
does not scale. Our substitute exploits that every evaluation VN is a tree
rooted at θ (pinned to the ingress): the minimum-cost unsplittable
embedding then decomposes over subtrees and is computed exactly by dynamic
programming.

For each virtual node j and substrate node v, ``H_j(v)`` is the minimum
cost of embedding the subtree rooted at j with j placed on v::

    H_j(v) = place(j, v) + Σ_{children k} min_w [ route_{jk}(v, w) + H_k(w) ]

The inner minimum over all w is computed for *all* v simultaneously with
one multi-source Dijkstra per virtual link, seeded with H_k(w) at every w
(route costs are symmetric on an undirected substrate): the shared
:func:`~repro.utils.paths.cheapest_host_search` with those seeds and
``node_load=math.inf``, reading the live residual lists by position.

The DP prices each element against the residual capacity independently; a
mapping where several virtual elements share one substrate element could
overshoot jointly, so the reconstructed embedding is verified against the
exact residual (Eq. 18) before acceptance. Individual requests are tiny
relative to element capacities, so this binds only at extreme utilization —
the same regime where the paper's ILP would reject too.
"""

from __future__ import annotations

import math

from repro.apps.application import ROOT_ID, Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.ledger import LedgerAlgorithm
from repro.core.profile import AppProfile, AppProfileCache
from repro.core.residual import ResidualState
from repro.substrate.network import NodeId, SubstrateNetwork, substrate_index
from repro.utils.paths import cheapest_host_search, tree_path
from repro.workload.request import Request


def exact_embed(
    request: Request,
    app: Application,
    substrate: SubstrateNetwork,
    efficiency: EfficiencyModel,
    residual: ResidualState,
    profile: AppProfile | None = None,
) -> Embedding | None:
    """Exact min-cost embedding of one request, or None if infeasible.

    ``profile`` supplies precomputed per-(VNF, node) η rows so the
    placement-feasibility scan skips the per-node efficiency calls; the
    resulting placement costs are bit-identical either way.
    """
    demand = request.demand
    index = substrate_index(substrate)
    node_ids = index.node_ids
    node_costs = index.node_cost_list
    # Position-indexed residuals, in node-id order; fixed for the
    # duration of one request.
    node_residual = residual.node_residual
    eta_lists = (
        {vnf_id: etas for vnf_id, (_, etas) in
         zip(profile.vnf_ids, profile.node_terms)}
        if profile is not None
        else None
    )

    # Bottom-up DP. Children of a node must be solved before the node, so
    # process virtual links in reverse BFS order. A route is the
    # ``(parent_node, parent_link, dist)`` of one seeded search.
    routes: dict[tuple[int, int], tuple[list, list, list]] = {}

    ordered = app.links_in_bfs_order()
    for vlink in reversed(ordered):
        child = app.vnf(vlink.head)
        if eta_lists is not None:
            etas = eta_lists[child.id]
        else:
            etas = [
                efficiency.node_eta(child, substrate.nodes[v])
                for v in node_ids
            ]
        place: list[tuple[int, float]] = []
        grand_links = app.children_links(child.id)
        size = child.size
        for i in range(len(node_ids)):
            eta = etas[i]
            if eta is None:
                continue
            load = demand * size * eta
            if load != load or load > node_residual[i]:  # nan = forbidden
                continue
            cost = load * node_costs[i]
            extra = 0.0
            feasible = True
            for grand_link in grand_links:
                routed = routes[grand_link.key][2]
                if routed[i] == math.inf:
                    feasible = False
                    break
                extra += routed[i]
            if feasible:
                place.append((i, cost + extra))
        if not place:
            return None
        _, parent_node, parent_link, dist, _ = cheapest_host_search(
            index.adj, index.link_cost_list, place, demand * vlink.size,
            residual.link_residual, math.inf, node_costs,
            index.min_node_cost, node_residual,
        )
        routes[vlink.key] = parent_node, parent_link, dist

    # Root: θ is pinned to the ingress with β = 0.
    ingress = index.node_index[request.ingress]
    for vlink in app.children_links(ROOT_ID):
        if routes[vlink.key][2][ingress] == math.inf:
            return None

    # Top-down reconstruction following the search trees' parents.
    node_map: dict[int, NodeId] = {ROOT_ID: request.ingress}
    link_paths: dict[tuple[int, int], tuple] = {}
    stack = [(ROOT_ID, ingress)]
    while stack:
        vnf_id, host = stack.pop()
        for vlink in app.children_links(vnf_id):
            parent_node, parent_link, _ = routes[vlink.key]
            seed, positions = tree_path(parent_node, parent_link, host)
            # The seed is the child's placement; the tree path leads
            # seed→host, so the virtual link's path is its reverse.
            node_map[vlink.head] = node_ids[seed]
            link_paths[vlink.key] = tuple(
                index.link_ids[p] for p in reversed(positions)
            )
            stack.append((vlink.head, seed))

    embedding = Embedding(node_map=node_map, link_paths=link_paths)
    loads = compute_loads(app, demand, embedding, substrate, efficiency)
    if not residual.fits(loads):
        return None  # joint use of one element overshot; see module docstring
    return embedding


class FullGAlgorithm(LedgerAlgorithm):
    """Per-request exact embedder on the shared ledger."""

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        efficiency: EfficiencyModel | None = None,
    ) -> None:
        super().__init__(substrate, apps, efficiency, "FULLG")
        #: Shared per-application static data (η rows per node), reused
        #: by every request's placement-feasibility scan.
        self.profiles = AppProfileCache(substrate, self.efficiency)

    def _embed(
        self, request: Request, app: Application
    ) -> tuple[Embedding, ElementLoads] | None:
        """The exact embedding against the live (possibly degraded)
        residual, with its loads."""
        embedding = exact_embed(
            request, app, self.substrate, self.efficiency, self.residual,
            profile=self.profiles.get(app),
        )
        if embedding is None:
            return None
        return embedding, compute_loads(
            app, request.demand, embedding, self.substrate, self.efficiency
        )
