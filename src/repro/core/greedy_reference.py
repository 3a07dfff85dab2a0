"""Reference GREEDYEMBED: the scalar oracle of the fast path.

This module keeps Algorithm 2's GREEDYEMBED (lines 31–34) in its plainest
form: one whole shortest-path tree from the ingress, then a scan over
every substrate node for the cheapest one that can host the request. It
exists for one purpose: the decision-equivalence tests drive whole
simulations through it and assert that :mod:`repro.core.greedy`, whose
search stops at the host, produces bit-identical
:class:`~repro.sim.engine.SimulationResult` values.

The tree comes from the one search every embedder shares,
:func:`~repro.utils.paths.cheapest_host_search` with
``node_load=math.inf`` (no host scoring, no early stop), whose
relaxation ``tests/test_utils.py`` checks against a plain-loop twin.
What is frozen here is everything around it — the whole-tree host scan,
the group loads and the generic :func:`~repro.core.embedding.compute_loads`
— so do not optimize this module: its value is that it stays simple and
obviously faithful to Algorithm 2.
"""

from __future__ import annotations

import itertools
import math

from repro.apps.application import ROOT_ID, Application, VNFKind
from repro.apps.efficiency import EfficiencyModel
from repro.core.embedding import Embedding, compute_loads
from repro.core.residual import ResidualState
from repro.substrate.network import NodeId, SubstrateNetwork
from repro.utils.fold import left_sum
from repro.utils.paths import cheapest_host_search, tree_path
from repro.workload.request import Request


def greedy_embed(
    request: Request,
    app: Application,
    substrate: SubstrateNetwork,
    efficiency: EfficiencyModel,
    residual: ResidualState,
    allow_split_groups: bool = True,
) -> Embedding | None:
    """Find the least-cost feasible (near-)collocated embedding, or None."""
    groups = _placement_groups(app)
    if len(groups) == 1:
        return _single_host_embed(request, app, substrate, efficiency, residual)
    if not allow_split_groups or len(groups) != 2:
        return None
    return _two_host_embed(
        request, app, substrate, efficiency, residual, groups
    )


def _placement_groups(app: Application) -> dict[str, list[int]]:
    """Partition non-root VNFs into placement-compatibility groups."""
    groups: dict[str, list[int]] = {}
    for vnf in app.non_root_vnfs():
        key = "gpu" if vnf.kind is VNFKind.GPU else "generic"
        groups.setdefault(key, []).append(vnf.id)
    return groups


def _group_node_load(
    app: Application,
    vnf_ids: list[int],
    demand: float,
    node_attrs,
    efficiency: EfficiencyModel,
) -> float | None:
    """Combined node load of a VNF group on one datacenter, or None."""
    total = 0.0
    for vnf_id in vnf_ids:
        vnf = app.vnf(vnf_id)
        eta = efficiency.node_eta(vnf, node_attrs)
        if eta is None:
            return None
        total += demand * vnf.size * eta
    return total


def _route_dijkstra(
    residual: ResidualState, source: NodeId, link_load: float
) -> tuple[list[float], list[int], list[int]]:
    """Min-cost paths from ``source`` using links with enough residual:
    ``(dist, parent_node, parent_link)`` by substrate position, ``inf``
    for the nodes it cannot reach.

    Link traversal cost is ``link_load × cost(link)`` — the per-slot price
    of carrying the crossing virtual links over that substrate link.
    """
    index = residual.index
    _, parent_node, parent_link, dist, _ = cheapest_host_search(
        index.adj, index.link_cost_list, ((index.node_index[source], 0.0),),
        link_load, residual.link_residual, math.inf, index.node_cost_list,
        index.min_node_cost, residual.node_residual,
    )
    return dist, parent_node, parent_link


def _links_to(
    residual: ResidualState, route, target: NodeId
) -> tuple | None:
    """The LinkId path a :func:`_route_dijkstra` tree takes to
    ``target``, or None when the tree does not reach it."""
    index = residual.index
    dist, parent_node, parent_link = route
    position = index.node_index[target]
    if dist[position] == math.inf:
        return None
    _, positions = tree_path(parent_node, parent_link, position)
    return tuple(index.link_ids[p] for p in positions)


def _single_host_embed(
    request: Request,
    app: Application,
    substrate: SubstrateNetwork,
    efficiency: EfficiencyModel,
    residual: ResidualState,
) -> Embedding | None:
    """The paper's GREEDYEMBED: all VNFs on one node, min resource cost."""
    vnf_ids = [vnf.id for vnf in app.non_root_vnfs()]
    root_links = app.children_links(ROOT_ID)
    route_load = request.demand * left_sum(link.size for link in root_links)

    route = _route_dijkstra(residual, request.ingress, route_load)
    dist = route[0]
    best: tuple[float, NodeId] | None = None
    for i, (v, attrs) in enumerate(substrate.nodes.items()):
        if dist[i] == math.inf:
            continue
        node_load = _group_node_load(
            app, vnf_ids, request.demand, attrs, efficiency
        )
        if node_load is None or node_load > residual.node_residual[i]:
            continue
        cost = node_load * attrs.cost + dist[i]
        if best is None or cost < best[0]:
            best = (cost, v)
    if best is None:
        return None
    host = best[1]
    path = _links_to(residual, route, host) or ()
    node_map = {ROOT_ID: request.ingress}
    node_map.update({vnf_id: host for vnf_id in vnf_ids})
    link_paths = {}
    for vlink in app.links:
        if vlink.tail == ROOT_ID:
            link_paths[vlink.key] = path
        else:
            link_paths[vlink.key] = ()
    embedding = Embedding(node_map=node_map, link_paths=link_paths)
    loads = compute_loads(app, request.demand, embedding, substrate, efficiency)
    if not residual.fits(loads):
        return None  # node+path loads can interact at the host
    return embedding


def _two_host_embed(
    request: Request,
    app: Application,
    substrate: SubstrateNetwork,
    efficiency: EfficiencyModel,
    residual: ResidualState,
    groups: dict[str, list[int]],
) -> Embedding | None:
    """Generalized greedy for two placement groups (GPU scenario).

    Collocates the generic group on host ``v`` and the GPU group on host
    ``w``, then routes each virtual link between the hosts of its
    endpoints. Candidate (v, w) pairs are evaluated exhaustively — the GPU
    node set is small — and the cheapest pair passing the exact residual
    check wins.
    """
    generic_ids = set(groups.get("generic", ()))
    gpu_ids = set(groups.get("gpu", ()))

    def host_group(vnf_id: int) -> str:
        if vnf_id == ROOT_ID:
            return "root"
        return "gpu" if vnf_id in gpu_ids else "generic"

    # Combined crossing load per host-group pair drives routing feasibility.
    pair_load: dict[tuple[str, str], float] = {}
    pairs_present: set[tuple[str, str]] = set()
    for vlink in app.links:
        pair = tuple(sorted((host_group(vlink.tail), host_group(vlink.head))))
        if pair[0] == pair[1]:
            continue
        pairs_present.add(pair)
        pair_load[pair] = (
            pair_load.get(pair, 0.0) + request.demand * vlink.size
        )

    root_generic = pair_load.get(("generic", "root"), 0.0)
    root_gpu = pair_load.get(("gpu", "root"), 0.0)
    cross = pair_load.get(("generic", "gpu"), 0.0)
    need_root_generic = ("generic", "root") in pairs_present
    need_root_gpu = ("gpu", "root") in pairs_present
    need_cross = ("generic", "gpu") in pairs_present

    route_v = _route_dijkstra(residual, request.ingress, root_generic)
    route_w = _route_dijkstra(residual, request.ingress, root_gpu)

    generic_hosts: list[tuple[NodeId, float]] = []
    gpu_hosts: list[tuple[NodeId, float]] = []
    for i, (node, attrs) in enumerate(substrate.nodes.items()):
        load = _group_node_load(
            app, sorted(generic_ids), request.demand, attrs, efficiency
        )
        if load is not None and load <= residual.node_residual[i]:
            generic_hosts.append((node, load))
        load = _group_node_load(
            app, sorted(gpu_ids), request.demand, attrs, efficiency
        )
        if load is not None and load <= residual.node_residual[i]:
            gpu_hosts.append((node, load))
    if not generic_hosts or not gpu_hosts:
        return None

    # One Dijkstra per GPU host candidate covers all v→w pair paths.
    gpu_paths = {
        w: _route_dijkstra(residual, w, cross) for w, _ in gpu_hosts
    }

    dist_v, dist_w = route_v[0], route_w[0]
    node_index = residual.index.node_index
    best: tuple[float, Embedding] | None = None
    for (v, v_load), (w, w_load) in itertools.product(generic_hosts, gpu_hosts):
        vi, wi = node_index[v], node_index[w]
        cost = v_load * substrate.node_cost(v) + w_load * substrate.node_cost(w)
        if need_root_generic:
            if dist_v[vi] == math.inf:
                continue
            cost += dist_v[vi]
        if need_root_gpu:
            if dist_w[wi] == math.inf:
                continue
            cost += dist_w[wi]
        route_cross = gpu_paths[w]
        dist_cross = route_cross[0]
        if need_cross:
            if dist_cross[vi] == math.inf:
                continue
            cost += dist_cross[vi]
        if best is not None and cost >= best[0]:
            continue

        hosts = {"root": request.ingress, "generic": v, "gpu": w}
        node_map = {ROOT_ID: request.ingress}
        node_map.update({i: v for i in sorted(generic_ids)})
        node_map.update({i: w for i in sorted(gpu_ids)})
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
                links = _links_to(residual, route_v, v)
            elif pair == ("gpu", "root"):
                links = _links_to(residual, route_w, w)
            else:
                links = _links_to(residual, route_cross, v)
            if links is None:
                feasible = False
                break
            link_paths[vlink.key] = links
        if not feasible:
            continue
        embedding = Embedding(node_map=node_map, link_paths=link_paths)
        loads = compute_loads(
            app, request.demand, embedding, substrate, efficiency
        )
        if residual.fits(loads):
            best = (cost, embedding)
    return best[1] if best else None
