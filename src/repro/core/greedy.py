"""GREEDYEMBED: collocated least-cost embedding (Algorithm 2, lines 31–34).

The paper states it as one capacity-constrained shortest-path run from
the ingress plus one host scan per request;
:mod:`repro.core.greedy_reference` keeps exactly that — the whole tree,
then a scan over every node — as the frozen oracle. This module produces
bit-identical embeddings faster. Every route is one
:func:`~repro.utils.paths.cheapest_host_search`
(:meth:`GreedyContext._route`) over the
:class:`~repro.substrate.network.SubstrateIndex` adjacency that reads the
live ``residual.link_residual`` list inside the relaxation; nothing is
memoized between requests. The shape of η in the
:class:`~repro.core.profile.AppProfile` selects how far it walks:

* **Node-independent η — the fused search**: every node would carry the
  same load, so the search scores nodes as it settles them and stops
  once no farther node can be cheaper. It walks a neighbourhood of the
  ingress, not the substrate, and picks the host of the reference's
  whole-tree scan (its docstring says why).
* **Per-node η and the two-group variant — a whole tree** (the same
  search with ``node_load=math.inf``, which scores no node and never
  stops), hosts scored by numpy expressions in substrate order (``nan``
  masks forbidden hosts).

For applications whose placement rules make full collocation impossible —
the GPU scenario, where GPU and non-GPU VNFs exclude each other — the
generalized two-group variant collocates each placement-compatible group
on its own host and routes between the (at most three) hosts. The paper's
QUICKG keeps the strict single-host restriction (it skips the GPU study
for exactly this reason); pass ``allow_split_groups=False`` to reproduce
that.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.apps.application import ROOT_ID, Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.profile import AppProfile, AppProfileCache
from repro.core.residual import ResidualState
from repro.substrate.network import SubstrateNetwork
from repro.utils.paths import cheapest_host_search, tree_path
from repro.workload.request import Request


class GreedyContext:
    """Per-algorithm state of the GREEDYEMBED fast path.

    Bundles the substrate index, the owning algorithm's residual state
    and the per-application profiles. OLIVE and its variants construct
    one next to their :class:`~repro.core.residual.ResidualState` and
    route every greedy fallback through :meth:`embed`.
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        efficiency: EfficiencyModel,
        residual: ResidualState,
    ) -> None:
        self.substrate = substrate
        self.efficiency = efficiency
        self.residual = residual
        self.index = residual.index
        self.profiles = AppProfileCache(substrate, efficiency)
        self.direct_routes = 0
        self.settled_nodes = 0

    def _route(self, source: int, load: float, node_load: float = math.inf):
        """``(host index, parent_node, parent_link, distances)`` of one
        shortest-path query: a fresh capacity-constrained Dijkstra from
        ``source`` over the links whose current residual covers
        ``load``. With a ``node_load`` it stops at the cheapest node that
        can carry it (``-1`` when there is none), and tree and distances
        cover only what it settled, the host's path included; without
        one it walks the whole tree."""
        self.direct_routes += 1
        index = self.index
        host, parent_node, parent_link, dist, settled = cheapest_host_search(
            index.adj, index.link_cost_list, ((source, 0.0),), load,
            self.residual.link_residual, node_load, index.node_cost_list,
            index.min_node_cost, self.residual.node_residual,
        )
        self.settled_nodes += settled
        return host, parent_node, parent_link, dist

    def stats(self) -> dict:
        """Operational counters for bench rows and diagnostics."""
        # The zero keys are read by name by benchmarks/perf (perfbench's
        # GREEDY_COUNTERS), which is frozen; nothing else uses them.
        return {
            "direct_routes": self.direct_routes,
            "settled_nodes": self.settled_nodes,
            "cache_hits": 0,
            "cache_misses": 0,
            "mode_switches": 0,
            "batch_rows": 0,
            "batch_fallbacks": 0,
            "batch_chunks": 0,
        }

    def embed(
        self,
        request: Request,
        app: Application,
        allow_split_groups: bool = True,
    ):
        """Least-cost feasible (near-)collocated embedding with its loads.

        Returns ``(embedding, loads)`` — the loads are the exact
        :func:`~repro.core.embedding.compute_loads` output the residual
        check already materialized, so callers on the hot path skip a
        second pass — or ``None`` when no feasible embedding exists.
        """
        profile = self.profiles.get(app)
        if len(profile.groups) == 1:
            return _single_host_embed(self, request, app, profile)
        if not allow_split_groups or len(profile.groups) != 2:
            return None
        return _two_host_embed(self, request, app, profile)


def greedy_embed(
    request: Request,
    app: Application,
    substrate: SubstrateNetwork,
    efficiency: EfficiencyModel,
    residual: ResidualState,
    allow_split_groups: bool = True,
    context: GreedyContext | None = None,
) -> Embedding | None:
    """Find the least-cost feasible (near-)collocated embedding, or None.

    Standalone calls build a transient :class:`GreedyContext`; callers on
    the hot path (OLIVE) keep one alive across requests so the profile
    cache amortizes.
    """
    if context is None:
        context = GreedyContext(substrate, efficiency, residual)
    result = context.embed(request, app, allow_split_groups)
    return None if result is None else result[0]


def _single_host_embed(
    ctx: GreedyContext,
    request: Request,
    app: Application,
    profile: AppProfile,
):
    """The paper's GREEDYEMBED: all VNFs on one node, min resource cost."""
    index = ctx.index
    residual = ctx.residual
    route_load = request.demand * profile.root_link_size_sum
    source = index.node_index[request.ingress]
    node_load = profile.group_load("all", request.demand)
    if isinstance(node_load, float):
        host_idx, parent_node, parent_link, _ = ctx._route(
            source, route_load, node_load
        )
        if host_idx < 0:
            return None
    else:
        _, parent_node, parent_link, dist = ctx._route(source, route_load)
        dist_array = np.array(dist)
        with np.errstate(invalid="ignore"):
            candidates = (
                (node_load <= np.array(residual.node_residual))
                & np.isfinite(dist_array)
            )
        if not candidates.any():
            return None
        cost = node_load * index.node_cost + dist_array
        cost[~candidates] = math.inf
        host_idx = int(np.argmin(cost))

    # Tree path, exact collocated loads, and the reference's single fits
    # check on the chosen host (infeasible → reject, never the next-best).
    host = index.node_ids[host_idx]
    _, positions = tree_path(parent_node, parent_link, host_idx)
    path = tuple([index.link_ids[position] for position in positions])
    loads = _collocated_loads(
        profile, request.demand, host_idx, host, positions, index.link_ids
    )
    if not residual.fits(loads):
        return None  # node+path loads can interact at the host
    node_map = {ROOT_ID: request.ingress}
    node_map.update({vnf_id: host for vnf_id in profile.vnf_ids})
    link_paths = {}
    for vlink in app.links:
        if vlink.tail == ROOT_ID:
            link_paths[vlink.key] = path
        else:
            link_paths[vlink.key] = ()
    return Embedding(node_map=node_map, link_paths=link_paths), loads


def _collocated_loads(
    profile: AppProfile,
    demand: float,
    host_idx: int,
    host,
    positions: list[int],
    link_ids,
) -> ElementLoads:
    """Eq. 1 loads of a single-host embedding, without the generic walk.

    Element order, accumulation order and arithmetic replicate
    :func:`~repro.core.embedding.compute_loads` on the equivalent
    embedding exactly: VNFs land on the host in application order, and
    only θ-adjacent virtual links (in application link order) traverse
    the ingress→host path.
    """
    loads = ElementLoads()
    nodes = loads.nodes
    for size, etas in profile.node_terms:
        load = demand * size * etas[host_idx]
        if load > 0:
            nodes[host] = nodes.get(host, 0.0) + load
    links = loads.links
    for size, etas in profile.root_link_terms:
        for position in positions:
            load = demand * size * etas[position]
            if load > 0:
                link = link_ids[position]
                links[link] = links.get(link, 0.0) + load
    return loads


def _links_to(route, target: int, link_ids) -> tuple:
    """The LinkId path from a :meth:`GreedyContext._route`'s source to
    ``target``."""
    _, positions = tree_path(route[1], route[2], target)
    return tuple([link_ids[position] for position in positions])


def _feasible_hosts(load_row, node_residual) -> list[tuple[int, float]]:
    """Host candidates ``(node_idx, load)`` in node order."""
    with np.errstate(invalid="ignore"):
        mask = load_row <= node_residual
    if isinstance(load_row, float):
        return [(int(i), load_row) for i in np.nonzero(mask)[0]]
    return [(int(i), float(load_row[i])) for i in np.nonzero(mask)[0]]


def _two_host_embed(
    ctx: GreedyContext,
    request: Request,
    app: Application,
    profile: AppProfile,
):
    """Generalized greedy for two placement groups (GPU scenario).

    Collocates the generic group on host ``v`` and the GPU group on host
    ``w``, then routes each virtual link between the hosts of its
    endpoints. Candidate (v, w) pairs are evaluated exhaustively — the GPU
    node set is small — and the cheapest pair passing the exact residual
    check wins.
    """
    index = ctx.index
    residual = ctx.residual
    demand = request.demand
    generic_ids = set(profile.groups.get("generic", ()))
    gpu_ids = set(profile.groups.get("gpu", ()))

    def host_group(vnf_id: int) -> str:
        if vnf_id == ROOT_ID:
            return "root"
        return "gpu" if vnf_id in gpu_ids else "generic"

    # Combined crossing load per host-group pair drives routing feasibility.
    pair_load = profile.pair_loads(demand)
    pairs_present = profile.pairs_present
    root_generic = pair_load.get(("generic", "root"), 0.0)
    root_gpu = pair_load.get(("gpu", "root"), 0.0)
    cross = pair_load.get(("generic", "gpu"), 0.0)
    need_root_generic = ("generic", "root") in pairs_present
    need_root_gpu = ("gpu", "root") in pairs_present
    need_cross = ("generic", "gpu") in pairs_present

    # Node check first: a request no node can host never routes.
    node_residual = np.array(residual.node_residual)
    generic_hosts = _feasible_hosts(
        profile.group_load("generic", demand), node_residual
    )
    gpu_hosts = _feasible_hosts(
        profile.group_load("gpu", demand), node_residual
    )
    if not generic_hosts or not gpu_hosts:
        return None

    source = index.node_index[request.ingress]
    route_v = ctx._route(source, root_generic)
    route_w = ctx._route(source, root_gpu)
    dist_v = route_v[3]
    dist_w = route_w[3]

    # One tree per GPU host candidate covers all v→w pair paths.
    gpu_routes = {w: ctx._route(w, cross) for w, _ in gpu_hosts}

    node_cost = index.node_cost
    inf = math.inf
    best: tuple[float, Embedding, object] | None = None
    for (v, v_load), (w, w_load) in itertools.product(generic_hosts, gpu_hosts):
        cost = v_load * node_cost[v] + w_load * node_cost[w]
        if need_root_generic:
            if dist_v[v] == inf:
                continue
            cost += dist_v[v]
        if need_root_gpu:
            if dist_w[w] == inf:
                continue
            cost += dist_w[w]
        dist_cross = gpu_routes[w][3]
        if need_cross:
            if dist_cross[v] == inf:
                continue
            cost += dist_cross[v]
        if best is not None and cost >= best[0]:
            continue

        v_id = index.node_ids[v]
        w_id = index.node_ids[w]
        hosts = {"root": request.ingress, "generic": v_id, "gpu": w_id}
        node_map = {ROOT_ID: request.ingress}
        node_map.update({i: v_id for i in sorted(generic_ids)})
        node_map.update({i: w_id for i in sorted(gpu_ids)})
        link_paths = {}
        feasible = True
        for vlink in app.links:
            group_a = host_group(vlink.tail)
            group_b = host_group(vlink.head)
            if hosts[group_a] == hosts[group_b]:
                link_paths[vlink.key] = ()
                continue
            pair = tuple(sorted((group_a, group_b)))
            if pair == ("generic", "root"):
                if dist_v[v] == inf:
                    feasible = False
                    break
                links = _links_to(route_v, v, index.link_ids)
            elif pair == ("gpu", "root"):
                if dist_w[w] == inf:
                    feasible = False
                    break
                links = _links_to(route_w, w, index.link_ids)
            else:
                if dist_cross[v] == inf:
                    feasible = False
                    break
                links = _links_to(gpu_routes[w], v, index.link_ids)
            link_paths[vlink.key] = links
        if not feasible:
            continue
        embedding = Embedding(node_map=node_map, link_paths=link_paths)
        loads = compute_loads(
            app, demand, embedding, ctx.substrate, ctx.efficiency
        )
        if residual.fits(loads):
            best = (cost, embedding, loads)
    return (best[1], best[2]) if best else None
