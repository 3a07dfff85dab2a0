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
(route costs are symmetric on an undirected substrate).

The DP prices each element against the residual capacity independently; a
mapping where several virtual elements share one substrate element could
overshoot jointly, so the reconstructed embedding is verified against the
exact residual (Eq. 18) before acceptance. Individual requests are tiny
relative to element capacities, so this binds only at extreme utilization —
the same regime where the paper's ILP would reject too.
"""

from __future__ import annotations

import heapq
import math

from repro.apps.application import ROOT_ID, Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.ledger import LedgerAlgorithm
from repro.core.profile import AppProfile, AppProfileCache
from repro.core.residual import ResidualState
from repro.errors import SimulationError
from repro.substrate.network import NodeId, SubstrateNetwork, substrate_index
from repro.workload.request import Request


def _multi_source_dijkstra(
    substrate: SubstrateNetwork,
    link_residual: dict,
    link_cost: dict,
    seeds: dict[NodeId, float],
    link_load: float,
) -> tuple[dict[NodeId, float], dict[NodeId, tuple[NodeId, tuple]]]:
    """min_w [route(v, w) + seed(w)] for every v, with parent pointers.

    Seeds are the subtree costs H_k(w); traversal is restricted to links
    whose residual capacity covers ``link_load`` and priced at
    ``link_load × cost(link)`` per hop. Walking parents from any v leads
    back to its optimal seed node w. ``link_residual``/``link_cost`` are
    plain-dict snapshots (residuals are fixed for the duration of one
    request; native dict lookups keep the relaxation loop fast).
    """
    dist: dict[NodeId, float] = dict(seeds)
    parent: dict[NodeId, tuple[NodeId, tuple]] = {}
    heap = [(cost, i, node) for i, (node, cost) in enumerate(seeds.items())]
    heapq.heapify(heap)
    counter = len(heap)
    finished: set[NodeId] = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in finished or d > dist.get(node, math.inf):
            continue
        finished.add(node)
        for neighbor, link in substrate.adjacency[node]:
            if neighbor in finished:
                continue
            if link_residual[link] < link_load:
                continue
            candidate = d + link_load * link_cost[link]
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                parent[neighbor] = (node, link)
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return dist, parent


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
    if request.ingress not in substrate.nodes:
        raise SimulationError(f"unknown ingress {request.ingress!r}")
    index = substrate_index(substrate)
    node_ids = index.node_ids
    node_costs = index.node_cost_list
    # Position-indexed residuals, already in node-id order; fixed for the
    # duration of one request. The link snapshot feeds the per-virtual-
    # link Dijkstras' key-based lookups.
    node_residual = residual.node_residual
    link_residual = dict(zip(index.link_ids, residual.link_residual))
    link_cost = index.link_cost_map
    eta_lists = (
        {vnf_id: etas for vnf_id, (_, etas) in
         zip(profile.vnf_ids, profile.node_terms)}
        if profile is not None
        else None
    )

    # Bottom-up DP. Children of a node must be solved before the node, so
    # process virtual links in reverse BFS order.
    subtree_cost: dict[int, dict[NodeId, float]] = {}
    route_maps: dict[tuple[int, int], tuple[dict, dict]] = {}

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
        place: dict[NodeId, float] = {}
        grand_links = app.children_links(child.id)
        size = child.size
        for i, v in enumerate(node_ids):
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
                routed = route_maps[grand_link.key][0]
                if v not in routed:
                    feasible = False
                    break
                extra += routed[v]
            if feasible:
                place[v] = cost + extra
        if not place:
            return None
        subtree_cost[child.id] = place
        link_load = demand * vlink.size
        route_maps[vlink.key] = _multi_source_dijkstra(
            substrate, link_residual, link_cost, place, link_load
        )

    # Root: θ is pinned to the ingress with β = 0.
    total = 0.0
    for vlink in app.children_links(ROOT_ID):
        routed = route_maps[vlink.key][0]
        if request.ingress not in routed:
            return None
        total += routed[request.ingress]

    # Top-down reconstruction following the Dijkstra parent pointers.
    node_map: dict[int, NodeId] = {ROOT_ID: request.ingress}
    link_paths: dict[tuple[int, int], tuple] = {}
    stack = [(ROOT_ID, request.ingress)]
    while stack:
        vnf_id, host = stack.pop()
        for vlink in app.children_links(vnf_id):
            _, parents = route_maps[vlink.key]
            links = []
            node = host
            while node in parents:
                prev, link = parents[node]
                links.append(link)
                node = prev
            # ``node`` is now the seed (child placement); the walked links
            # lead host→seed, which is the virtual link's path.
            node_map[vlink.head] = node
            link_paths[vlink.key] = tuple(links)
            stack.append((vlink.head, node))

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
