"""Unit tests for repro.utils: seeding discipline and path helpers."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.paths import (
    capacity_constrained_dijkstra,
    cheapest_host_search,
    path_cost,
    path_links,
)
from repro.utils.rng import child_rng, make_rng, spawn_rngs


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_child_streams_are_reproducible(self):
        a = child_rng(make_rng(7), "arrivals", 3).random(5)
        b = child_rng(make_rng(7), "arrivals", 3).random(5)
        assert np.array_equal(a, b)

    def test_child_streams_differ_by_key(self):
        root = make_rng(7)
        a = child_rng(root, "arrivals").random(5)
        b = child_rng(root, "departures").random(5)
        assert not np.array_equal(a, b)

    def test_child_independent_of_parent_consumption(self):
        root = make_rng(7)
        before = child_rng(root, "x").random(3)
        root.random(100)  # consume the parent stream
        after = child_rng(root, "x").random(3)
        assert np.array_equal(before, after)

    def test_spawn_rngs_count_and_independence(self):
        children = spawn_rngs(make_rng(0), 3)
        assert len(children) == 3
        draws = [c.random(4).tolist() for c in children]
        assert draws[0] != draws[1] != draws[2]


def _square_adjacency():
    """4-cycle a-b-c-d with a diagonal a-c."""
    links = {
        ("a", "b"): 1.0,
        ("b", "c"): 1.0,
        ("c", "d"): 1.0,
        ("a", "d"): 1.0,
        ("a", "c"): 5.0,
    }
    adjacency = {n: [] for n in "abcd"}
    for (u, v) in links:
        adjacency[u].append((v, (u, v)))
        adjacency[v].append((u, (u, v)))
    return adjacency, links


class TestDijkstra:
    def test_shortest_path_costs(self):
        adjacency, weights = _square_adjacency()
        dist, parent = capacity_constrained_dijkstra(
            adjacency, "a", lambda l: weights[l], lambda l: True
        )
        assert dist["c"] == pytest.approx(2.0)  # a-b-c beats the 5.0 diagonal
        assert dist["d"] == pytest.approx(1.0)

    def test_path_reconstruction(self):
        adjacency, weights = _square_adjacency()
        _, parent = capacity_constrained_dijkstra(
            adjacency, "a", lambda l: weights[l], lambda l: True
        )
        links = path_links(parent, "a", "c")
        assert links == [("a", "b"), ("b", "c")]
        assert path_cost(links, lambda l: weights[l]) == pytest.approx(2.0)

    def test_infeasible_links_excluded(self):
        adjacency, weights = _square_adjacency()
        # Forbid both cheap two-hop routes: only the diagonal remains.
        banned = {("a", "b"), ("a", "d")}
        dist, parent = capacity_constrained_dijkstra(
            adjacency, "a", lambda l: weights[l], lambda l: l not in banned
        )
        assert dist["c"] == pytest.approx(5.0)
        assert path_links(parent, "a", "c") == [("a", "c")]

    def test_unreachable_node_absent(self):
        adjacency, weights = _square_adjacency()
        dist, parent = capacity_constrained_dijkstra(
            adjacency, "a", lambda l: weights[l], lambda l: False
        )
        assert dist == {"a": 0.0}
        assert path_links(parent, "a", "c") is None

    def test_source_path_is_empty(self):
        adjacency, weights = _square_adjacency()
        _, parent = capacity_constrained_dijkstra(
            adjacency, "a", lambda l: weights[l], lambda l: True
        )
        assert path_links(parent, "a", "a") == []


# -- host search vs its plain-loop twin ---------------------------------------


def _indexed_adjacency(num_nodes, links):
    adj = [[] for _ in range(num_nodes)]
    for position, (a, b) in enumerate(links):
        adj[a].append((b, position))
        adj[b].append((a, position))
    return adj


def _plain_whole_tree(adj, link_costs, source, load, link_residual):
    """Plain-loop whole-tree Dijkstra on the indexed adjacency:
    ``(parent_node, parent_link, dist, pop order)``. Anchored to the
    dict-keyed production reference, which greedy_reference runs."""
    dist = {source: 0.0}
    parent = {}
    order = []
    heap = [(0.0, 0, source)]
    counter = 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in order:
            continue
        order.append(node)
        for neighbor, link in adj[node]:
            if neighbor in order or link_residual[link] < load:
                continue
            candidate = d + load * link_costs[link]
            if candidate < dist.get(neighbor, math.inf):
                dist[neighbor] = candidate
                parent[neighbor] = (node, link)
                heapq.heappush(heap, (candidate, counter, neighbor))
                counter += 1
    assert (dist, parent) == capacity_constrained_dijkstra(
        dict(enumerate(adj)), source,
        lambda link: load * link_costs[link],
        lambda link: link_residual[link] >= load,
    )
    nodes = range(len(adj))
    return (
        [parent.get(v, (-1, -1))[0] for v in nodes],
        [parent.get(v, (-1, -1))[1] for v in nodes],
        [dist.get(v, math.inf) for v in nodes],
        order,
    )


def _plain_host_scan(dist, node_load, node_costs, node_residual):
    """The reference's first-strict-minimum scan over a whole tree's
    nodes in index order."""
    best_cost, host = math.inf, -1
    for v, d in enumerate(dist):
        if d == math.inf or node_load > node_residual[v]:
            continue
        cost = node_load * node_costs[v] + d
        if cost < best_cost:
            best_cost, host = cost, v
    return host


def _tree_path(parent_node, parent_link, source, target):
    links = []
    while target != source:
        links.append(parent_link[target])
        target = parent_node[target]
    return links[::-1]


def _assert_fused_equals_twin(
    adj, link_costs, source, load, link_residual,
    node_load, node_costs, node_residual,
):
    """Host, link path and the settled prefix equal the twin's bit for
    bit; returns the fused search's ``(host, settled nodes in pop
    order)``."""
    twin_parent_node, twin_parent_link, twin_dist, twin_order = (
        _plain_whole_tree(adj, link_costs, source, load, link_residual)
    )
    search = (adj, link_costs, source, load, link_residual)
    # Without a node load the search is the whole tree.
    assert cheapest_host_search(
        *search, math.inf, node_costs, min(node_costs), node_residual
    ) == (-1, twin_parent_node, twin_parent_link, twin_dist, len(twin_order))

    host, parent_node, parent_link, dist, num_settled = cheapest_host_search(
        *search, node_load, node_costs, min(node_costs), node_residual
    )
    assert host == _plain_host_scan(
        twin_dist, node_load, node_costs, node_residual
    )
    assert 1 <= num_settled <= len(twin_order)
    settled = twin_order[:num_settled]  # same pops, stopped early
    for v in settled:
        assert dist[v] == twin_dist[v]
        assert parent_node[v] == twin_parent_node[v]
        assert parent_link[v] == twin_parent_link[v]
    if host < 0:
        assert settled == twin_order  # nothing to stop on: walk it all
    else:
        assert host in settled
        assert _tree_path(parent_node, parent_link, source, host) == (
            _tree_path(twin_parent_node, twin_parent_link, source, host)
        )
    return host, settled


#: Dyadic values tie exactly under float ``*`` and ``+``; 0.1 / 0.3 do
#: not, and exercise the monotone-rounding half of the stop argument.
_LINK_COSTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 0.1, 0.3])
_NODE_COSTS = st.sampled_from([1.0, 1.5, 2.0, 3.0, 0.1, 0.3])


@st.composite
def host_search_cases(draw):
    num_nodes = draw(st.integers(1, 12))
    # A random spanning tree plus extra (possibly parallel) links.
    links = [(draw(st.integers(0, v - 1)), v) for v in range(1, num_nodes)]
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ),
            max_size=2 * num_nodes,
        )
    )
    links += [(a, b) for a, b in extra if a != b]
    return dict(
        adj=_indexed_adjacency(num_nodes, links),
        link_costs=[draw(_LINK_COSTS) for _ in links],
        source=draw(st.integers(0, num_nodes - 1)),
        load=draw(st.sampled_from([0.0, 1.0, 2.0])),
        # 0.0 / 1.0 residuals saturate links for load 2.0: cuts.
        link_residual=[
            draw(st.sampled_from([0.0, 1.0, 4.0])) for _ in links
        ],
        node_load=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 16.0])),
        node_costs=[draw(_NODE_COSTS) for _ in range(num_nodes)],
        node_residual=[
            draw(st.sampled_from([0.0, 1.0, 8.0])) for _ in range(num_nodes)
        ],
    )


class TestCheapestHostSearch:
    @given(host_search_cases())
    @settings(max_examples=400)
    def test_fused_search_equals_whole_tree_scan(self, case):
        _assert_fused_equals_twin(**case)

    @staticmethod
    def _line(num_nodes=5, **overrides):
        """0 - 1 - ... - n-1, unit link costs, everything feasible."""
        links = [(v, v + 1) for v in range(num_nodes - 1)]
        case = dict(
            adj=_indexed_adjacency(num_nodes, links),
            link_costs=[1.0] * len(links),
            source=0,
            load=1.0,
            link_residual=[4.0] * len(links),
            node_load=1.0,
            node_costs=[5.0] * num_nodes,
            node_residual=[8.0] * num_nodes,
        )
        case.update(overrides)
        return case

    def test_no_feasible_host_walks_everything_reachable(self):
        host, settled = _assert_fused_equals_twin(
            **self._line(node_load=9.0)
        )
        assert host == -1
        assert settled == [0, 1, 2, 3, 4]

    def test_isolated_ingress_costs_one_pop(self):
        case = self._line(link_residual=[0.0, 4.0, 4.0, 4.0])
        host, settled = _assert_fused_equals_twin(**case)
        assert (host, settled) == (0, [0])
        case["node_residual"][0] = 0.0  # ... and cannot host either
        host, settled = _assert_fused_equals_twin(**case)
        assert (host, settled) == (-1, [0])

    def test_zero_route_load_ignores_link_residual_and_distance(self):
        # Every link carries load 0 at cost 0: all distances are 0, the
        # cheapest node anywhere wins, and nothing can be pruned.
        case = self._line(
            load=0.0,
            link_residual=[0.0] * 4,
            node_costs=[5.0, 4.0, 3.0, 2.0, 2.0],
        )
        host, settled = _assert_fused_equals_twin(**case)
        assert host == 3
        assert settled == [0, 1, 2, 3, 4]

    def test_host_is_ingress_stops_at_once(self):
        # Same node cost everywhere: the first step away already costs
        # more than hosting at the ingress (whose path is empty).
        host, settled = _assert_fused_equals_twin(**self._line())
        assert (host, settled) == (0, [0])

    def test_lower_index_wins_an_exact_tie_settled_later(self):
        """3 - 0 - 1 - 2 from source 2: node 1 (near, dear) and node 0
        (far, cheap) both total 4.0. The reference scan meets node 0
        first, so node 0 wins — the search must keep going through the
        equal stop key (strict ``>``) and prefer the lower index on the
        tie, then stop before node 3."""
        links = [(0, 1), (1, 2), (0, 3)]
        case = dict(
            adj=_indexed_adjacency(4, links),
            link_costs=[2.0, 1.0, 1.0],
            source=2,
            load=1.0,
            link_residual=[4.0] * 3,
            node_load=1.0,
            node_costs=[1.0, 3.0, 9.0, 1.0],
            node_residual=[8.0] * 4,
        )
        host, settled = _assert_fused_equals_twin(**case)
        assert host == 0
        assert settled == [2, 1, 0]
