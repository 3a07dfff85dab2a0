"""Builders for the four evaluation topologies (Table II, Fig. 5).

The paper uses Iris (Internet Topology Zoo), Citta Studi (mobile edge
network), 5GEN (generated 5G deployment, Madrid) and 100N150E (connected
Erdős–Rényi graph). The first three source graphs are not redistributable,
so this module reconstructs them deterministically with the published
node/link counts and the three-tier edge/transport/core structure the
evaluation relies on (see DESIGN.md §2 for the substitution rationale).

All builders are deterministic: the same call always returns the same
substrate, including node costs (drawn uniformly in [50 %, 150 %] of the
tier mean from a fixed-seed generator).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import TopologyError
from repro.registry import register_topology, topology_registry
from repro.substrate.network import (
    LinkAttrs,
    LinkId,
    NodeAttrs,
    NodeId,
    SubstrateNetwork,
    link_id,
)
from repro.substrate.tiers import (
    TIER_LINK_CAPACITY,
    TIER_LINK_COST,
    TIER_MEAN_NODE_COST,
    TIER_NODE_CAPACITY,
    Tier,
    link_tier,
)
from repro.utils.rng import make_rng

#: City names for Iris edge datacenters. 'Franklin' is referenced by the
#: paper's Fig. 12 per-node allocation study.
_IRIS_EDGE_NAMES = (
    "Franklin", "Madison", "Arlington", "Georgetown", "Springfield",
    "Clinton", "Salem", "Fairview", "Bristol", "Dover",
    "Hudson", "Clayton", "Dayton", "Lebanon", "Milton",
    "Newport", "Oxford", "Riverside", "Ashland", "Burlington",
    "Chester", "Florence", "Greenville", "Jackson", "Kingston",
    "Lexington", "Manchester", "Norwood", "Princeton", "Quincy",
    "Richmond", "Troy", "Union", "Vernon",
)


def _node_attrs(tier: Tier, rng: np.random.Generator, gpu: bool = False) -> NodeAttrs:
    """Draw one datacenter's attributes: tier capacity, U[0.5, 1.5]×mean cost."""
    cost = TIER_MEAN_NODE_COST[tier] * rng.uniform(0.5, 1.5)
    return NodeAttrs(tier=tier, capacity=TIER_NODE_CAPACITY[tier], cost=cost, gpu=gpu)


def _link_attrs(tier_a: Tier, tier_b: Tier) -> LinkAttrs:
    tier = link_tier(tier_a, tier_b)
    return LinkAttrs(
        tier=tier, capacity=TIER_LINK_CAPACITY[tier], cost=TIER_LINK_COST[tier]
    )


def make_tiered_topology(
    name: str,
    num_core: int,
    num_transport: int,
    num_edge: int,
    num_links: int,
    seed: int = 0,
    edge_names: tuple[str, ...] | None = None,
) -> SubstrateNetwork:
    """Build a hierarchical three-tier topology with exact element counts.

    Construction: a core ring, each transport node homed to one core node,
    each edge node homed to one transport node (round-robin, so load is
    spread), then extra redundancy links (transport↔transport,
    edge↔secondary transport, transport↔secondary core) until ``num_links``
    is reached.
    """
    for label, count in (
        ("num_core", num_core),
        ("num_transport", num_transport),
        ("num_edge", num_edge),
        ("num_links", num_links),
    ):
        if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
            raise TopologyError(
                f"{name}: {label} must be an integer, got {count!r}"
            )
        if count < 1:
            raise TopologyError(
                f"{name}: {label} must be at least 1, got {count}"
            )
    base_links = (
        (num_core if num_core > 2 else max(num_core - 1, 0))
        + num_transport
        + num_edge
    )
    if num_links < base_links:
        raise TopologyError(
            f"{name}: need at least {base_links} links for connectivity, "
            f"got {num_links}"
        )
    rng = make_rng(seed)

    core = [f"core-{i}" for i in range(num_core)]
    transport = [f"transport-{i}" for i in range(num_transport)]
    if edge_names is not None:
        if len(edge_names) != num_edge:
            raise TopologyError(
                f"{name}: {num_edge} edge nodes but {len(edge_names)} names"
            )
        edge = list(edge_names)
    else:
        edge = [f"edge-{i}" for i in range(num_edge)]

    nodes: dict[NodeId, NodeAttrs] = {}
    for node in core:
        nodes[node] = _node_attrs(Tier.CORE, rng)
    for node in transport:
        nodes[node] = _node_attrs(Tier.TRANSPORT, rng)
    for node in edge:
        nodes[node] = _node_attrs(Tier.EDGE, rng)

    tier_of = {v: nodes[v].tier for v in nodes}
    links: dict[LinkId, LinkAttrs] = {}

    def add_link(a: NodeId, b: NodeId) -> bool:
        key = link_id(a, b)
        if a == b or key in links:
            return False
        links[key] = _link_attrs(tier_of[a], tier_of[b])
        return True

    # Core ring.
    for i in range(len(core)):
        if len(core) == 1:
            break
        if len(core) == 2 and i == 1:
            break
        add_link(core[i], core[(i + 1) % len(core)])
    # Home each transport node to one core node (round-robin).
    for i, node in enumerate(transport):
        add_link(node, core[i % len(core)])
    # Home each edge node to one transport node (round-robin).
    for i, node in enumerate(edge):
        add_link(node, transport[i % len(transport)])

    # Redundancy links until the published link count is reached. Candidate
    # pools are tried in order: transport mesh links, edge dual-homing,
    # transport dual-homing to core.
    candidates: list[tuple[NodeId, NodeId]] = []
    for i in range(len(transport)):
        candidates.append(
            (transport[i], transport[(i + 1) % len(transport)])
        )
    for i, node in enumerate(edge):
        candidates.append((node, transport[(i + 1) % len(transport)]))
    for i, node in enumerate(transport):
        candidates.append((node, core[(i + 1) % len(core)]))
    rng.shuffle(candidates)
    for a, b in candidates:
        if len(links) >= num_links:
            break
        add_link(a, b)
    if len(links) != num_links:
        raise TopologyError(
            f"{name}: exhausted candidate links at {len(links)}/{num_links}"
        )

    return SubstrateNetwork(name=name, nodes=nodes, links=links)


@register_topology("Iris", description="50 nodes / 64 links, Topology Zoo scale")
def make_iris() -> SubstrateNetwork:
    """Iris: 50 nodes, 64 links (Internet Topology Zoo scale).

    Edge datacenters carry city names; 'Franklin' exists for the Fig. 12
    per-node study.
    """
    return make_tiered_topology(
        "Iris",
        num_core=4,
        num_transport=12,
        num_edge=34,
        num_links=64,
        seed=11,
        edge_names=_IRIS_EDGE_NAMES,
    )


@register_topology(
    "CittaStudi", description="30 nodes / 35 links, mobile edge scale"
)
def make_citta_studi() -> SubstrateNetwork:
    """Citta Studi: 30 nodes, 35 links (mobile edge network scale)."""
    return make_tiered_topology(
        "CittaStudi", num_core=3, num_transport=7, num_edge=20,
        num_links=35, seed=23,
    )


@register_topology(
    "5GEN", description="78 nodes / 100 links, generated 5G deployment"
)
def make_5gen() -> SubstrateNetwork:
    """5GEN: 78 nodes, 100 links (generated 5G deployment scale)."""
    return make_tiered_topology(
        "5GEN", num_core=6, num_transport=18, num_edge=54,
        num_links=100, seed=37,
    )


@register_topology(
    "100N150E", description="connected Erdős–Rényi graph, 100 nodes / 150 links"
)
def make_100n150e(seed: int = 47) -> SubstrateNetwork:
    """100N150E: connected Erdős–Rényi graph, 100 nodes / 150 links.

    Tiers are assigned by degree rank (highest-degree nodes become core),
    mirroring how random-graph evaluations map hierarchy onto flat graphs.
    """
    rng = make_rng(seed)
    num_nodes, num_links = 100, 150
    for _attempt in range(1000):
        pairs = _random_gnm(num_nodes, num_links, rng)
        if _connected(num_nodes, pairs):
            break
    else:  # pragma: no cover - probability of 1000 failures is negligible
        raise TopologyError("failed to sample a connected G(100, 150)")

    degree = [0] * num_nodes
    for a, b in sorted(pairs):
        degree[a] += 1
        degree[b] += 1
    order = sorted(range(num_nodes), key=lambda v: (-degree[v], v))
    tier_by_index: dict[int, Tier] = {}
    for rank, v in enumerate(order):
        if rank < 8:
            tier_by_index[v] = Tier.CORE
        elif rank < 32:
            tier_by_index[v] = Tier.TRANSPORT
        else:
            tier_by_index[v] = Tier.EDGE

    nodes: dict[NodeId, NodeAttrs] = {}
    for v in range(num_nodes):
        nodes[f"n{v}"] = _node_attrs(tier_by_index[v], rng)
    links: dict[LinkId, LinkAttrs] = {}
    for a, b in sorted(pairs):
        links[link_id(f"n{a}", f"n{b}")] = _link_attrs(
            tier_by_index[a], tier_by_index[b]
        )
    return SubstrateNetwork(name="100N150E", nodes=nodes, links=links)


def _random_gnm(
    num_nodes: int, num_links: int, rng: np.random.Generator
) -> set[tuple[int, int]]:
    """Sample ``num_links`` distinct undirected pairs over ``num_nodes``."""
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < num_links:
        a, b = rng.integers(0, num_nodes, size=2)
        if a == b:
            continue
        pairs.add((min(a, b), max(a, b)))
    return pairs


def _connected(num_nodes: int, pairs: set[tuple[int, int]]) -> bool:
    adjacency: list[list[int]] = [[] for _ in range(num_nodes)]
    for a, b in sorted(pairs):
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == num_nodes


# -- generated scale families -------------------------------------------------
#
# The catalog above reproduces Table II at published sizes. The families
# below are *parameterized* — `make_topology("waxman:800")` builds an
# 800-node instance — and exist to measure how the embedding pipeline
# scales (fig_scale, BENCH_scale). Every family is deterministic in
# (size, seed) and assigns tiers so the trace/plan machinery (which
# needs non-empty edge/transport/core sets) works unchanged.

#: Default node count when a sized family is built without a size.
DEFAULT_SCALE_NODES = 120


def _check_size(family: str, num_nodes: int, minimum: int) -> None:
    if not isinstance(num_nodes, (int, np.integer)) or isinstance(
        num_nodes, bool
    ):
        raise TopologyError(
            f"{family}: size must be an integer, got {num_nodes!r}"
        )
    if num_nodes < minimum:
        raise TopologyError(
            f"{family}: size must be at least {minimum}, got {num_nodes}"
        )


def _tiers_by_degree_rank(
    num_nodes: int, pairs: set[tuple[int, int]]
) -> dict[int, Tier]:
    """Map node indices to tiers by degree rank (hubs become core).

    The same flat-graph hierarchy assignment 100N150E uses, generalized:
    top ~6 % of nodes by degree are core, the next ~24 % transport, the
    rest edge (ties broken by index for determinism).
    """
    degree = [0] * num_nodes
    for a, b in sorted(pairs):
        degree[a] += 1
        degree[b] += 1
    order = sorted(range(num_nodes), key=lambda v: (-degree[v], v))
    num_core = max(1, round(0.06 * num_nodes))
    num_transport = max(1, round(0.24 * num_nodes))
    tiers: dict[int, Tier] = {}
    for rank, v in enumerate(order):
        if rank < num_core:
            tiers[v] = Tier.CORE
        elif rank < num_core + num_transport:
            tiers[v] = Tier.TRANSPORT
        else:
            tiers[v] = Tier.EDGE
    return tiers


def _substrate_from_pairs(
    name: str,
    num_nodes: int,
    pairs: set[tuple[int, int]],
    rng: np.random.Generator,
) -> SubstrateNetwork:
    tiers = _tiers_by_degree_rank(num_nodes, pairs)
    nodes: dict[NodeId, NodeAttrs] = {}
    for v in range(num_nodes):
        nodes[f"n{v}"] = _node_attrs(tiers[v], rng)
    links: dict[LinkId, LinkAttrs] = {}
    for a, b in sorted(pairs):
        links[link_id(f"n{a}", f"n{b}")] = _link_attrs(tiers[a], tiers[b])
    return SubstrateNetwork(name=name, nodes=nodes, links=links)


@register_topology(
    "tiered-x",
    description="scaled three-tier hierarchy; size via 'tiered-x:<nodes>'",
    sized=True,
)
def make_scaled_tiered(
    num_nodes: int = DEFAULT_SCALE_NODES, seed: int = 101
) -> SubstrateNetwork:
    """A three-tier hierarchy scaled to ``num_nodes`` datacenters.

    Tier counts follow the catalog's ~1:3:9 core:transport:edge ratio;
    the link budget adds a transport mesh ring and dual-homes half the
    edge nodes, so redundancy grows with the substrate.
    """
    _check_size("tiered-x", num_nodes, 26)
    num_core = max(2, num_nodes // 13)
    num_transport = max(3, 3 * num_core)
    num_edge = num_nodes - num_core - num_transport
    ring_links = num_core if num_core > 2 else num_core - 1
    num_links = (
        ring_links + num_transport + num_edge  # homing skeleton
        + num_transport  # transport mesh ring
        + num_edge // 2  # dual-home half the edge nodes
    )
    return make_tiered_topology(
        f"tiered-x-{num_nodes}",
        num_core=num_core,
        num_transport=num_transport,
        num_edge=num_edge,
        num_links=num_links,
        seed=seed,
    )


@register_topology(
    "waxman",
    description="Waxman random geometric graph; size via 'waxman:<nodes>'",
    sized=True,
)
def make_waxman(
    num_nodes: int = DEFAULT_SCALE_NODES,
    seed: int = 211,
    alpha: float = 0.25,
    beta: float = 0.6,
) -> SubstrateNetwork:
    """Waxman(α, β) geometric graph with a nearest-neighbor backbone.

    Nodes are placed uniformly in the unit square; each node first links
    to its nearest already-placed neighbor (guaranteeing connectivity),
    then extra edges are sampled with the Waxman probability
    ``β·exp(−d/(α·√2))`` until ~1.5 links per node. Tiers by degree rank.
    """
    _check_size("waxman", num_nodes, 20)
    rng = make_rng(seed)
    positions = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    pairs: set[tuple[int, int]] = set()
    # Nearest-neighbor backbone: connected by construction.
    for i in range(1, num_nodes):
        deltas = positions[:i] - positions[i]
        nearest = int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))
        pairs.add((nearest, i))
    target = int(1.5 * num_nodes)
    scale = alpha * float(np.sqrt(2.0))
    attempts = 0
    while len(pairs) < target and attempts < 200:
        attempts += 1
        chunk = max(256, 2 * (target - len(pairs)))
        a = rng.integers(0, num_nodes, size=chunk)
        b = rng.integers(0, num_nodes, size=chunk)
        dist = np.linalg.norm(positions[a] - positions[b], axis=1)
        accept = rng.uniform(size=chunk) < beta * np.exp(-dist / scale)
        for u, v, ok in zip(a, b, accept):
            if ok and u != v:
                pairs.add((min(int(u), int(v)), max(int(u), int(v))))
            if len(pairs) >= target:
                break
    return _substrate_from_pairs(f"waxman-{num_nodes}", num_nodes, pairs, rng)


@register_topology(
    "prefattach",
    description="preferential-attachment graph; size via 'prefattach:<nodes>'",
    sized=True,
)
def make_preferential(
    num_nodes: int = DEFAULT_SCALE_NODES, seed: int = 307, m: int = 2
) -> SubstrateNetwork:
    """Barabási–Albert preferential attachment with ``m`` links per node.

    Grown from an ``m+1``-clique; every new node attaches to ``m``
    distinct targets sampled proportionally to current degree. The
    resulting heavy-tailed degree distribution maps naturally onto the
    core/transport/edge split (hubs become core).
    """
    _check_size("prefattach", num_nodes, 20)
    if m < 1:
        raise TopologyError(f"prefattach: m must be at least 1, got {m}")
    rng = make_rng(seed)
    pairs: set[tuple[int, int]] = set()
    repeated: list[int] = []  # one entry per degree endpoint
    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            pairs.add((a, b))
            repeated.extend((a, b))
    for v in range(m + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(0, len(repeated)))])
        for t in sorted(targets):
            pairs.add((t, v))
            repeated.extend((t, v))
    return _substrate_from_pairs(
        f"prefattach-{num_nodes}", num_nodes, pairs, rng
    )


@register_topology(
    "caida-x",
    description="scaled-CAIDA expander graph; size via 'caida-x:<nodes>'",
    sized=True,
)
def make_caida_expander(
    num_nodes: int = DEFAULT_SCALE_NODES, seed: int = 401
) -> SubstrateNetwork:
    """An expander in the style of scaled CAIDA AS graphs.

    A ring backbone (connectivity) plus a random perfect matching
    (expansion) plus Pareto-weighted hub attachments (the heavy-tailed
    AS-degree profile CAIDA snapshots show). ~1.75 links per node.
    """
    _check_size("caida-x", num_nodes, 20)
    rng = make_rng(seed)
    pairs: set[tuple[int, int]] = set()
    for v in range(num_nodes):
        w = (v + 1) % num_nodes
        pairs.add((min(v, w), max(v, w)))
    matching = rng.permutation(num_nodes)
    for i in range(0, num_nodes - 1, 2):
        a, b = int(matching[i]), int(matching[i + 1])
        pairs.add((min(a, b), max(a, b)))
    # Heavy-tailed hub attachments: nodes draw Pareto weights, random
    # nodes wire to hubs sampled proportionally to weight.
    weights = rng.pareto(1.5, size=num_nodes) + 1.0
    probabilities = weights / weights.sum()
    spokes = rng.integers(0, num_nodes, size=num_nodes // 4)
    hubs = rng.choice(num_nodes, size=num_nodes // 4, p=probabilities)
    for a, b in zip(spokes, hubs):
        if int(a) != int(b):
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    return _substrate_from_pairs(f"caida-x-{num_nodes}", num_nodes, pairs, rng)


def split_gpu_datacenters(
    substrate: SubstrateNetwork,
    num_edge_gpu: int = 4,
    seed: int = 0,
    non_gpu_capacity_factor: float = 0.75,
) -> SubstrateNetwork:
    """Split core nodes and ``num_edge_gpu`` random edge nodes for Fig. 10.

    Each selected datacenter ``v`` is split into a non-GPU half (keeps the
    name ``v``) and a GPU half (``v-gpu``) connected to ``v`` by an
    intra-site link. Capacity is divided evenly; the non-GPU half is then
    reduced by 25 % ("non-GPU datacenters were assigned capacity smaller by
    25 %"). GPU halves only accept GPU VNFs (enforced by the efficiency
    model, Sec. II-A).
    """
    if num_edge_gpu > len(substrate.edge_nodes):
        raise TopologyError("more GPU edge splits than edge nodes")
    rng = make_rng(seed)
    edge_pick = sorted(
        rng.choice(len(substrate.edge_nodes), size=num_edge_gpu, replace=False)
    )
    selected = set(substrate.core_nodes) | {
        substrate.edge_nodes[i] for i in edge_pick
    }

    nodes = dict(substrate.nodes)
    links = dict(substrate.links)
    # Iterate in sorted order: set iteration depends on string-hash
    # randomization, which would make node insertion order — and hence
    # every downstream trace draw and result — vary across processes.
    for v in sorted(selected):
        attrs = nodes[v]
        half = attrs.capacity / 2.0
        nodes[v] = replace(
            attrs, capacity=half * non_gpu_capacity_factor, gpu=False
        )
        twin = f"{v}-gpu"
        nodes[twin] = replace(attrs, capacity=half, gpu=True)
        links[link_id(v, twin)] = LinkAttrs(
            tier=attrs.tier,
            capacity=TIER_LINK_CAPACITY[attrs.tier],
            cost=TIER_LINK_COST[attrs.tier],
        )
    return SubstrateNetwork(
        name=f"{substrate.name}-gpu", nodes=nodes, links=links
    )


def make_topology(name: str) -> SubstrateNetwork:
    """Build a registered topology by name (``repro.registry`` backed).

    Sized families (registered with ``sized=True`` metadata) accept a
    ``"family:<nodes>"`` spelling — ``make_topology("waxman:800")``
    builds an 800-node Waxman instance. Catalog topologies reject the
    suffix: their element counts are published, not parameters.
    """
    base, sep, size = name.partition(":")
    if not sep:
        return topology_registry.create(name)
    entry = topology_registry.get(base)
    if not entry.metadata.get("sized"):
        raise TopologyError(
            f"topology {base!r} has fixed published element counts and "
            f"does not take a size parameter (got {name!r})"
        )
    try:
        num_nodes = int(size)
    except ValueError:
        raise TopologyError(
            f"bad topology size {size!r} in {name!r}; "
            f"expected '{base}:<num_nodes>'"
        ) from None
    return entry.factory(num_nodes)
