"""Physical substrate networks: tiered datacenters and links.

Models the substrate exactly as Sec. II-A of the paper: a graph whose nodes
are datacenters and whose links are inter-datacenter connections, each with
a capacity ``cap(s)`` and per-capacity-unit usage cost ``cost(s)``. Nodes
belong to one of three tiers (edge / transport / core) following the mobile
access network architecture used in the evaluation.
"""

from repro.substrate.analysis import (
    TopologyReport,
    analyze_topology,
    bottleneck_links,
    edge_uplink_capacity,
    tier_summaries,
)
from repro.substrate.network import LinkAttrs, NodeAttrs, SubstrateNetwork
from repro.substrate.tiers import (
    TIER_LINK_CAPACITY,
    TIER_LINK_COST,
    TIER_MEAN_NODE_COST,
    TIER_NODE_CAPACITY,
    Tier,
)
from repro.substrate.topologies import (
    make_100n150e,
    make_5gen,
    make_citta_studi,
    make_iris,
    make_tiered_topology,
    make_topology,
    split_gpu_datacenters,
)

__all__ = [
    "Tier",
    "TIER_NODE_CAPACITY",
    "TIER_MEAN_NODE_COST",
    "TIER_LINK_CAPACITY",
    "TIER_LINK_COST",
    "NodeAttrs",
    "LinkAttrs",
    "SubstrateNetwork",
    "make_iris",
    "make_citta_studi",
    "make_5gen",
    "make_100n150e",
    "make_tiered_topology",
    "make_topology",
    "split_gpu_datacenters",
    "analyze_topology",
    "TopologyReport",
    "tier_summaries",
    "edge_uplink_capacity",
    "bottleneck_links",
]
