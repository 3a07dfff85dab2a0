"""The :class:`SubstrateNetwork` model.

A substrate is an undirected graph of datacenters. Node identifiers are
strings (e.g., ``"edge-3"`` or ``"Franklin"``); links are identified by the
sorted node pair. The class pre-computes the adjacency structure used by the
path helpers and exposes capacity/cost lookups keyed by element, matching
``cap(s)`` / ``cost(s)`` of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import networkx as nx
import numpy as np

from repro.errors import TopologyError
from repro.substrate.tiers import Tier

NodeId = str
LinkId = tuple[str, str]


@dataclass(frozen=True)
class SubstrateIndex:
    """Integer-indexed view of one substrate, shared by the fast paths.

    Nodes and links are numbered in the substrate's insertion order (the
    order every dict-based scan in the slow paths iterates in), so
    array positions and dict iteration visit elements identically — a
    requirement for bit-identical tie-breaking between the vectorized and
    the scalar code.

    ``adj`` holds node ``i``'s incident ``(neighbor_idx, link_idx)``
    pairs, preserving the per-node neighbor order of
    :attr:`SubstrateNetwork.adjacency`; plain-Python tuples because the
    scalar-heavy Dijkstra loop is faster on native ints/floats than on
    numpy scalar indexing.
    """

    node_ids: tuple[NodeId, ...]
    link_ids: tuple[LinkId, ...]
    node_index: dict[NodeId, int]
    link_index: dict[LinkId, int]
    node_capacity: np.ndarray
    node_cost: np.ndarray
    link_capacity: np.ndarray
    link_cost: np.ndarray
    adj: tuple[tuple[tuple[int, int], ...], ...]
    link_cost_list: tuple[float, ...]
    node_cost_list: tuple[float, ...]
    #: Cheapest node cost — the bound the fused GREEDYEMBED search stops on.
    min_node_cost: float

    @classmethod
    def build(cls, substrate: "SubstrateNetwork") -> "SubstrateIndex":
        node_ids = tuple(substrate.nodes)
        link_ids = tuple(substrate.links)
        node_index = {v: i for i, v in enumerate(node_ids)}
        link_index = {l: i for i, l in enumerate(link_ids)}
        adj = tuple(
            tuple(
                (node_index[neighbor], link_index[link])
                for neighbor, link in substrate.adjacency[node]
            )
            for node in node_ids
        )
        node_cost_list = tuple(substrate.nodes[v].cost for v in node_ids)
        return cls(
            node_ids=node_ids,
            link_ids=link_ids,
            node_index=node_index,
            link_index=link_index,
            node_capacity=np.array(
                [substrate.nodes[v].capacity for v in node_ids]
            ),
            node_cost=np.array([substrate.nodes[v].cost for v in node_ids]),
            link_capacity=np.array(
                [substrate.links[l].capacity for l in link_ids]
            ),
            link_cost=np.array([substrate.links[l].cost for l in link_ids]),
            adj=adj,
            link_cost_list=tuple(
                substrate.links[l].cost for l in link_ids
            ),
            node_cost_list=node_cost_list,
            min_node_cost=min(node_cost_list, default=0.0),
        )

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_links(self) -> int:
        return len(self.link_ids)


def substrate_index(substrate: "SubstrateNetwork") -> SubstrateIndex:
    """The (lazily built, cached) :class:`SubstrateIndex` of a substrate."""
    index = substrate.__dict__.get("_index")
    if index is None:
        index = SubstrateIndex.build(substrate)
        substrate.__dict__["_index"] = index
    return index


@dataclass(frozen=True)
class NodeAttrs:
    """Static attributes of one datacenter."""

    tier: Tier
    capacity: float
    cost: float
    gpu: bool = False


@dataclass(frozen=True)
class LinkAttrs:
    """Static attributes of one inter-datacenter link."""

    tier: Tier
    capacity: float
    cost: float


def link_id(a: NodeId, b: NodeId) -> LinkId:
    """Canonical (sorted) identifier of the undirected link between a, b."""
    return (a, b) if a <= b else (b, a)


@dataclass
class SubstrateNetwork:
    """An immutable physical network with tiered capacities and costs.

    Mutating capacity during simulation is done on *residual* copies held by
    the algorithms, never on this object.
    """

    name: str
    nodes: dict[NodeId, NodeAttrs]
    links: dict[LinkId, LinkAttrs]
    adjacency: dict[NodeId, list[tuple[NodeId, LinkId]]] = field(init=False)

    def __post_init__(self) -> None:
        adjacency: dict[NodeId, list[tuple[NodeId, LinkId]]] = {
            node: [] for node in self.nodes
        }
        for (a, b) in self.links:
            if a not in self.nodes or b not in self.nodes:
                raise TopologyError(f"link ({a}, {b}) references unknown node")
            adjacency[a].append((b, (a, b)))
            adjacency[b].append((a, (a, b)))
        self.adjacency = adjacency
        if not self._is_connected():
            raise TopologyError(f"substrate {self.name!r} is not connected")

    def _is_connected(self) -> bool:
        if not self.nodes:
            return True
        seen: set[NodeId] = set()
        stack = [next(iter(self.nodes))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(n for n, _ in self.adjacency[node] if n not in seen)
        return len(seen) == len(self.nodes)

    # -- structure queries ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def nodes_in_tier(self, tier: Tier) -> list[NodeId]:
        """Node ids of the given tier, in insertion order."""
        return [v for v, attrs in self.nodes.items() if attrs.tier == tier]

    @property
    def edge_nodes(self) -> list[NodeId]:
        return self.nodes_in_tier(Tier.EDGE)

    @property
    def transport_nodes(self) -> list[NodeId]:
        return self.nodes_in_tier(Tier.TRANSPORT)

    @property
    def core_nodes(self) -> list[NodeId]:
        return self.nodes_in_tier(Tier.CORE)

    def gpu_nodes(self) -> list[NodeId]:
        return [v for v, attrs in self.nodes.items() if attrs.gpu]

    def total_edge_capacity(self) -> float:
        """Sum of edge-tier node capacities (the 100 %-utilization anchor)."""
        return sum(
            attrs.capacity
            for attrs in self.nodes.values()
            if attrs.tier == Tier.EDGE
        )

    # -- cap / cost lookups ---------------------------------------------------

    def node_capacity(self, node: NodeId) -> float:
        return self.nodes[node].capacity

    def node_cost(self, node: NodeId) -> float:
        return self.nodes[node].cost

    def link_capacity(self, link: LinkId) -> float:
        return self.links[link].capacity

    def link_cost(self, link: LinkId) -> float:
        return self.links[link].cost

    def max_node_cost(self) -> float:
        return max(attrs.cost for attrs in self.nodes.values())

    def max_link_cost(self) -> float:
        return max(attrs.cost for attrs in self.links.values())

    # -- derived views ---------------------------------------------------------

    def to_networkx(self) -> nx.Graph:
        """Export to a networkx graph (for analysis and plotting)."""
        graph = nx.Graph(name=self.name)
        for node, attrs in self.nodes.items():
            graph.add_node(
                node,
                tier=attrs.tier.name.lower(),
                capacity=attrs.capacity,
                cost=attrs.cost,
                gpu=attrs.gpu,
            )
        for (a, b), attrs in self.links.items():
            graph.add_edge(
                a,
                b,
                tier=attrs.tier.name.lower(),
                capacity=attrs.capacity,
                cost=attrs.cost,
            )
        return graph

    def with_node_attrs(
        self, overrides: dict[NodeId, NodeAttrs]
    ) -> "SubstrateNetwork":
        """A copy with some node attributes replaced."""
        nodes = dict(self.nodes)
        for node, attrs in overrides.items():
            if node not in nodes:
                raise TopologyError(f"unknown node {node!r}")
            nodes[node] = attrs
        return SubstrateNetwork(name=self.name, nodes=nodes, links=dict(self.links))

    def scaled_capacities(self, factor: float) -> "SubstrateNetwork":
        """A copy with all node and link capacities multiplied by ``factor``."""
        if factor <= 0:
            raise TopologyError("capacity scale factor must be positive")
        nodes = {
            v: replace(attrs, capacity=attrs.capacity * factor)
            for v, attrs in self.nodes.items()
        }
        links = {
            l: replace(attrs, capacity=attrs.capacity * factor)
            for l, attrs in self.links.items()
        }
        return SubstrateNetwork(name=self.name, nodes=nodes, links=links)

    def summary(self) -> dict:
        """Table II-style row describing this topology."""
        return {
            "name": self.name,
            "nodes": self.num_nodes,
            "links": self.num_links,
            "edge": len(self.edge_nodes),
            "transport": len(self.transport_nodes),
            "core": len(self.core_nodes),
            "edge_capacity": self.total_edge_capacity(),
        }
