"""Path helpers: filesystem roots and substrate shortest paths.

The filesystem helpers give every on-disk artifact (the experiment result
cache, future trace downloads) one well-known, overridable root.

The shortest-path helpers operate on position-indexed adjacency lists
(a :class:`~repro.substrate.network.SubstrateIndex`'s ``adj``) rather
than on networkx graphs directly, because the online algorithms call
them in tight loops where networkx overhead dominates. There is one
search, :func:`cheapest_host_search`; every embedder routes through it.
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Sequence
from pathlib import Path

#: Environment variable overriding every on-disk root at once.
DATA_ROOT_ENV = "REPRO_DATA_DIR"
#: Environment variable overriding just the experiment result cache root.
CACHE_ROOT_ENV = "REPRO_CACHE_DIR"


def data_root() -> Path:
    """Root directory for everything the library persists.

    ``$REPRO_DATA_DIR`` if set, else ``~/.cache/repro`` (following the
    XDG convention via ``$XDG_CACHE_HOME`` when present). The directory
    is not created here — callers create what they actually use.
    """
    override = os.environ.get(DATA_ROOT_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def default_cache_root() -> Path:
    """Default root of the experiment result cache.

    ``$REPRO_CACHE_DIR`` if set, else ``<data_root()>/results``.
    """
    override = os.environ.get(CACHE_ROOT_ENV)
    if override:
        return Path(override)
    return data_root() / "results"


def cheapest_host_search(
    adj: Sequence[Sequence[tuple[int, int]]],
    link_costs: Sequence[float],
    seeds: Sequence[tuple[int, float]],
    load: float,
    link_residual: Sequence[float],
    node_load: float,
    node_costs: Sequence[float],
    min_node_cost: float,
    node_residual: Sequence[float],
) -> tuple[int, list[int], list[int], list[float], int]:
    """Capacity-constrained Dijkstra fused with GREEDYEMBED's host scan:
    it stops as soon as no farther node can be the cheapest host.

    Operates on a :class:`~repro.substrate.network.SubstrateIndex`-style
    adjacency (per-node ``(neighbor_idx, link_idx)`` pairs), with
    traversal weight ``load × link_costs[link]``; a link is traversable
    iff ``link_residual[link] >= load``, tested inside the relaxation
    against the caller's sequence (nothing is materialized per call).
    The search starts from ``seeds``, distinct ``(node, initial
    distance)`` pairs numbered for the heap's tie-breaking counter in the
    order given: one ``(source, 0.0)`` for a single-source query, one per
    candidate placement for FULLG's subtree DP. Relaxation order, heap
    counter and floating-point accumulation are fixed, so equal inputs
    give bit-identical distances and trees.

    Each node is scored as it is settled — ``node_load * node_costs[v] +
    dist[v]``, skipped when ``node_load > node_residual[v]`` — and the
    best ``(cost, index)`` is kept, the lower index winning an exact cost
    tie: the first strict minimum of a scan over the whole tree in index
    order. The search stops at the first pop whose distance ``d`` gives
    ``node_load * min_node_cost + d > best cost``; ``min_node_cost`` must
    be a lower bound on ``node_costs`` and ``node_load`` non-negative.
    ``node_load=math.inf`` scores no node and so never stops: the whole
    tree, for callers that pick hosts themselves.

    The stop is exact. Relaxation order, heap counter and arithmetic do
    not depend on it, so every settled node has the whole tree's distance
    and parent. Pop distances never decrease and float ``*`` and ``+``
    round monotonically, so every unsettled node scores at least the stop
    key, which already exceeds the best cost. And the test is strict, so
    every node that ties the best cost is settled before the stop and the
    index tie-break sees all of them.

    Returns
    -------
    (host, parent_node, parent_link, dist, settled):
        ``host`` is the chosen node or ``-1`` when no reached node can
        carry ``node_load`` (the search then settled everything
        reachable). ``settled`` is the number of nodes settled, the
        seeds included; ``parent_node`` / ``parent_link`` / ``dist`` are
        final for those nodes (``-1`` parents for a seed no path
        undercuts, see :func:`tree_path`) and tentative, or ``-1`` /
        ``math.inf``, for the rest.
    """
    num_nodes = len(adj)
    dist: list[float] = [float("inf")] * num_nodes
    heap: list[tuple[float, int, int]] = []
    for counter, (node, start) in enumerate(seeds):
        dist[node] = start
        heap.append((start, counter, node))
    heapq.heapify(heap)
    counter = len(heap)  # tie-breaker: the heap never compares nodes
    parent_node = [-1] * num_nodes
    parent_link = [-1] * num_nodes
    visited = [False] * num_nodes
    settled = 0
    best_cost = float("inf")
    host = -1
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, _, node = pop(heap)
        if visited[node]:
            continue
        if node_load * min_node_cost + d > best_cost:
            break
        visited[node] = True
        settled += 1
        if node_load <= node_residual[node]:
            cost = node_load * node_costs[node] + d
            if cost < best_cost or (cost == best_cost and node < host):
                best_cost = cost
                host = node
        for neighbor, link in adj[node]:
            if visited[neighbor] or link_residual[link] < load:
                continue
            candidate = d + load * link_costs[link]
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                parent_node[neighbor] = node
                parent_link[neighbor] = link
                push(heap, (candidate, counter, neighbor))
                counter += 1
    return host, parent_node, parent_link, dist, settled


def tree_path(
    parent_node: Sequence[int], parent_link: Sequence[int], target: int
) -> tuple[int, list[int]]:
    """``(root, link positions root → target)`` in a search tree.

    Follows :func:`cheapest_host_search`'s parent lists from a settled
    ``target`` back to the seed its path starts at; a seed's own path is
    empty.
    """
    links = []
    while parent_node[target] >= 0:
        links.append(parent_link[target])
        target = parent_node[target]
    links.reverse()
    return target, links
