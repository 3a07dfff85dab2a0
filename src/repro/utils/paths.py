"""Path helpers: filesystem roots and substrate shortest paths.

The filesystem helpers give every on-disk artifact (the experiment result
cache, future trace downloads) one well-known, overridable root.

The shortest-path helpers operate on adjacency structures (``dict[node,
list[(neighbor, link_key)]]``) rather than on networkx graphs directly,
because the online algorithms call them in tight loops where networkx
overhead dominates.
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Callable, Mapping, Sequence
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


def capacity_constrained_dijkstra(
    adjacency: Mapping[object, Sequence[tuple[object, object]]],
    source: object,
    link_weight: Callable[[object], float],
    link_feasible: Callable[[object], bool],
) -> tuple[dict, dict]:
    """Single-source min-cost paths using only feasible links.

    Parameters
    ----------
    adjacency:
        Maps each node to ``(neighbor, link_key)`` pairs. ``link_key``
        identifies the undirected substrate link.
    source:
        Start node.
    link_weight:
        Returns a non-negative traversal cost for a link key.
    link_feasible:
        Returns ``False`` for links that must not be traversed (e.g., with
        insufficient residual capacity).

    Returns
    -------
    (dist, parent):
        ``dist[v]`` is the min cost from ``source``; ``parent[v]`` is the
        ``(predecessor, link_key)`` pair on an optimal path. Unreachable
        nodes are absent from both maps.
    """
    dist: dict = {source: 0.0}
    parent: dict = {}
    heap: list[tuple[float, int, object]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker so heap never compares node objects
    visited: set = set()
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, link in adjacency[node]:
            if neighbor in visited or not link_feasible(link):
                continue
            candidate = d + link_weight(link)
            if candidate < dist.get(neighbor, float("inf")):
                dist[neighbor] = candidate
                parent[neighbor] = (node, link)
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    return dist, parent


def indexed_capacity_dijkstra(
    adj: Sequence[Sequence[tuple[int, int]]],
    link_costs: Sequence[float],
    source: int,
    load: float,
    link_residual: Sequence[float],
) -> tuple[list[int], list[int], list[int], list[float]]:
    """Integer-indexed twin of :func:`capacity_constrained_dijkstra`.

    Operates on a :class:`~repro.substrate.network.SubstrateIndex`-style
    adjacency (per-node ``(neighbor_idx, link_idx)`` pairs, in the same
    per-node order as the dict adjacency), with traversal weight
    ``load × link_costs[link]``; a link is traversable iff
    ``link_residual[link] >= load``, tested inside the relaxation against
    the caller's live residual sequence (nothing is materialized per
    call). The relaxation sequence, heap tie-breaking counter and
    floating-point accumulation mirror the dict version exactly, so for
    the same inputs both produce bit-identical distances and the same
    shortest-path tree.

    Returns
    -------
    (order, parent_node, parent_link, dist):
        ``order`` lists settled nodes in pop order (``order[0] ==
        source``; parents always precede children). ``parent_node[v]`` /
        ``parent_link[v]`` are ``-1`` for the source and unreached nodes;
        ``dist[v]`` is ``math.inf`` for unreached nodes.
    """
    num_nodes = len(adj)
    dist: list[float] = [float("inf")] * num_nodes
    dist[source] = 0.0
    parent_node = [-1] * num_nodes
    parent_link = [-1] * num_nodes
    visited = [False] * num_nodes
    order: list[int] = []
    heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker, mirroring capacity_constrained_dijkstra
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        d, _, node = pop(heap)
        if visited[node]:
            continue
        visited[node] = True
        order.append(node)
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
    return order, parent_node, parent_link, dist


def path_links(parent: Mapping, source: object, target: object) -> list | None:
    """Reconstruct the list of link keys from ``source`` to ``target``.

    Returns ``None`` when ``target`` was not reached. The path for
    ``target == source`` is the empty list.
    """
    if target == source:
        return []
    if target not in parent:
        return None
    links = []
    node = target
    while node != source:
        node, link = parent[node]
        links.append(link)
    links.reverse()
    return links


def path_cost(links: Sequence, link_weight: Callable[[object], float]) -> float:
    """Total traversal cost of a link sequence."""
    return sum(link_weight(link) for link in links)
