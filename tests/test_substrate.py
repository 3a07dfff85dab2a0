"""Unit tests for repro.substrate: network model and topology builders."""

import pytest

from repro.errors import TopologyError
from repro.registry import topology_registry
from repro.substrate.network import LinkAttrs, NodeAttrs, SubstrateNetwork, link_id
from repro.substrate.tiers import (
    TIER_LINK_CAPACITY,
    TIER_NODE_CAPACITY,
    Tier,
    link_tier,
)
from repro.substrate.topologies import (
    DEFAULT_SCALE_NODES,
    make_100n150e,
    make_5gen,
    make_caida_expander,
    make_citta_studi,
    make_iris,
    make_preferential,
    make_scaled_tiered,
    make_tiered_topology,
    make_topology,
    make_waxman,
    split_gpu_datacenters,
)


class TestTiers:
    def test_capacity_ratio_between_tiers_is_three(self):
        assert (
            TIER_NODE_CAPACITY[Tier.TRANSPORT]
            == 3 * TIER_NODE_CAPACITY[Tier.EDGE]
        )
        assert (
            TIER_NODE_CAPACITY[Tier.CORE]
            == 3 * TIER_NODE_CAPACITY[Tier.TRANSPORT]
        )
        assert (
            TIER_LINK_CAPACITY[Tier.TRANSPORT]
            == 3 * TIER_LINK_CAPACITY[Tier.EDGE]
        )

    def test_link_tier_is_edge_most(self):
        assert link_tier(Tier.EDGE, Tier.CORE) is Tier.EDGE
        assert link_tier(Tier.CORE, Tier.TRANSPORT) is Tier.TRANSPORT
        assert link_tier(Tier.CORE, Tier.CORE) is Tier.CORE


class TestNetworkModel:
    def test_link_id_is_sorted(self):
        assert link_id("b", "a") == ("a", "b")
        assert link_id("a", "b") == ("a", "b")

    def test_adjacency_is_symmetric(self, line_substrate):
        neighbors = {n for n, _ in line_substrate.adjacency["transport"]}
        assert neighbors == {"edge-a", "core"}

    def test_unknown_link_endpoint_raises(self):
        nodes = {"a": NodeAttrs(Tier.EDGE, 1.0, 1.0)}
        links = {("a", "b"): LinkAttrs(Tier.EDGE, 1.0, 1.0)}
        with pytest.raises(TopologyError, match="unknown node"):
            SubstrateNetwork(name="bad", nodes=nodes, links=links)

    def test_disconnected_substrate_raises(self):
        nodes = {
            "a": NodeAttrs(Tier.EDGE, 1.0, 1.0),
            "b": NodeAttrs(Tier.EDGE, 1.0, 1.0),
        }
        with pytest.raises(TopologyError, match="not connected"):
            SubstrateNetwork(name="split", nodes=nodes, links={})

    def test_tier_queries(self, line_substrate):
        assert set(line_substrate.edge_nodes) == {"edge-a", "edge-b"}
        assert line_substrate.transport_nodes == ["transport"]
        assert line_substrate.core_nodes == ["core"]

    def test_total_edge_capacity(self, line_substrate):
        assert line_substrate.total_edge_capacity() == 2000.0

    def test_scaled_capacities(self, line_substrate):
        doubled = line_substrate.scaled_capacities(2.0)
        assert doubled.node_capacity("edge-a") == 2000.0
        assert doubled.link_capacity(("edge-a", "transport")) == 1000.0
        # Original untouched.
        assert line_substrate.node_capacity("edge-a") == 1000.0

    def test_scaled_capacities_rejects_nonpositive(self, line_substrate):
        with pytest.raises(TopologyError):
            line_substrate.scaled_capacities(0.0)

    def test_with_node_attrs_rejects_unknown(self, line_substrate):
        with pytest.raises(TopologyError, match="unknown node"):
            line_substrate.with_node_attrs(
                {"nope": NodeAttrs(Tier.EDGE, 1.0, 1.0)}
            )

    def test_to_networkx_roundtrip(self, line_substrate):
        graph = line_substrate.to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3
        assert graph.nodes["core"]["tier"] == "core"

    def test_max_costs(self, line_substrate):
        assert line_substrate.max_node_cost() == 50.0
        assert line_substrate.max_link_cost() == 1.0


#: Published Table II element counts.
PUBLISHED_COUNTS = {
    "Iris": (50, 64),
    "CittaStudi": (30, 35),
    "5GEN": (78, 100),
    "100N150E": (100, 150),
}


class TestTopologies:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_COUNTS))
    def test_published_element_counts(self, name):
        substrate = make_topology(name)
        nodes, links = PUBLISHED_COUNTS[name]
        assert substrate.num_nodes == nodes
        assert substrate.num_links == links

    @pytest.mark.parametrize("name", sorted(PUBLISHED_COUNTS))
    def test_three_tiers_present(self, name):
        substrate = make_topology(name)
        assert substrate.edge_nodes
        assert substrate.transport_nodes
        assert substrate.core_nodes

    @pytest.mark.parametrize("builder", [make_iris, make_citta_studi, make_5gen, make_100n150e])
    def test_builders_are_deterministic(self, builder):
        a, b = builder(), builder()
        assert a.nodes == b.nodes
        assert set(a.links) == set(b.links)

    def test_iris_has_franklin_edge_node(self):
        iris = make_iris()
        assert "Franklin" in iris.nodes
        assert iris.nodes["Franklin"].tier is Tier.EDGE

    def test_node_costs_within_tier_band(self):
        iris = make_iris()
        for attrs in iris.nodes.values():
            mean = {Tier.EDGE: 50.0, Tier.TRANSPORT: 10.0, Tier.CORE: 1.0}[
                attrs.tier
            ]
            assert 0.5 * mean <= attrs.cost <= 1.5 * mean

    def test_unknown_topology_raises(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            make_topology("Atlantis")

    def test_registry_covers_all_builders(self):
        assert set(topology_registry) >= set(PUBLISHED_COUNTS)
        assert set(topology_registry) - set(PUBLISHED_COUNTS) == {
            "tiered-x", "waxman", "prefattach", "caida-x",
        }

    def test_tiered_builder_rejects_too_few_links(self):
        with pytest.raises(TopologyError, match="at least"):
            make_tiered_topology("x", 2, 3, 5, num_links=5)

    def test_tiered_builder_rejects_bad_name_count(self):
        with pytest.raises(TopologyError, match="names"):
            make_tiered_topology(
                "x", 1, 2, 3, num_links=8, edge_names=("only-one",)
            )

    @pytest.mark.parametrize(
        "counts",
        [
            (0, 3, 5),   # empty core tier used to ZeroDivisionError
            (2, 0, 5),   # empty transport tier likewise
            (2, 3, 0),   # no edge nodes: malformed for trace generation
            (-1, 3, 5),  # negative counts built silently malformed graphs
            (2, -3, 5),
            (2, 3, -5),
        ],
    )
    def test_tiered_builder_rejects_nonpositive_tier_counts(self, counts):
        core, transport, edge = counts
        with pytest.raises(TopologyError, match="at least 1"):
            make_tiered_topology("x", core, transport, edge, num_links=50)

    def test_tiered_builder_rejects_nonpositive_link_count(self):
        with pytest.raises(TopologyError, match="num_links"):
            make_tiered_topology("x", 2, 3, 5, num_links=0)

    def test_tiered_builder_rejects_non_integer_counts(self):
        with pytest.raises(TopologyError, match="integer"):
            make_tiered_topology("x", 2.5, 3, 5, num_links=12)


SCALE_BUILDERS = {
    "tiered-x": make_scaled_tiered,
    "waxman": make_waxman,
    "prefattach": make_preferential,
    "caida-x": make_caida_expander,
}


class TestScaleFamilies:
    """Parameterized generated topologies (the fig_scale substrate tier)."""

    @pytest.mark.parametrize("family", sorted(SCALE_BUILDERS))
    def test_sized_metadata_and_default_size(self, family):
        from repro.registry import topology_registry

        assert topology_registry.get(family).metadata["sized"] is True
        substrate = make_topology(family)
        assert substrate.num_nodes == DEFAULT_SCALE_NODES

    @pytest.mark.parametrize("family", sorted(SCALE_BUILDERS))
    @pytest.mark.parametrize("size", [40, 200])
    def test_sized_name_builds_exact_node_count(self, family, size):
        substrate = make_topology(f"{family}:{size}")
        assert substrate.num_nodes == size
        # Connectivity is enforced by the SubstrateNetwork constructor;
        # all three tiers must exist for the trace/plan machinery.
        assert substrate.edge_nodes
        assert substrate.transport_nodes
        assert substrate.core_nodes

    @pytest.mark.parametrize("family", sorted(SCALE_BUILDERS))
    def test_builders_are_deterministic(self, family):
        a = make_topology(f"{family}:64")
        b = make_topology(f"{family}:64")
        assert a.nodes == b.nodes
        assert set(a.links) == set(b.links)

    @pytest.mark.parametrize("family", sorted(SCALE_BUILDERS))
    def test_link_budget_scales_superlinearly_in_nodes(self, family):
        substrate = make_topology(f"{family}:100")
        assert substrate.num_links >= substrate.num_nodes

    def test_size_suffix_rejected_for_catalog_topologies(self):
        with pytest.raises(TopologyError, match="does not take a size"):
            make_topology("Iris:500")

    def test_malformed_size_suffix_rejected(self):
        with pytest.raises(TopologyError, match="bad topology size"):
            make_topology("waxman:huge")

    def test_unknown_family_with_size_raises(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            make_topology("torus:64")

    @pytest.mark.parametrize("family", sorted(SCALE_BUILDERS))
    def test_undersized_request_rejected(self, family):
        with pytest.raises(TopologyError, match="at least"):
            make_topology(f"{family}:5")


class TestGpuSplit:
    def test_split_marks_core_and_edge_twins(self):
        iris = make_iris()
        split = split_gpu_datacenters(iris, num_edge_gpu=4, seed=0)
        gpu_nodes = split.gpu_nodes()
        # All 4 core nodes plus 4 edge nodes get GPU twins.
        assert len(gpu_nodes) == len(iris.core_nodes) + 4
        assert all(name.endswith("-gpu") for name in gpu_nodes)

    def test_split_reduces_non_gpu_capacity_by_quarter(self):
        iris = make_iris()
        split = split_gpu_datacenters(iris, num_edge_gpu=4, seed=0)
        for twin in split.gpu_nodes():
            original = twin.removesuffix("-gpu")
            half = iris.nodes[original].capacity / 2
            assert split.nodes[twin].capacity == pytest.approx(half)
            assert split.nodes[original].capacity == pytest.approx(0.75 * half)

    def test_split_keeps_connectivity(self):
        split = split_gpu_datacenters(make_citta_studi(), num_edge_gpu=2, seed=3)
        # The SubstrateNetwork constructor raises if disconnected; also
        # sanity-check the element counts grew by the split amounts.
        assert split.num_nodes == 30 + 3 + 2
        assert split.num_links == 35 + 5

    def test_split_rejects_too_many_edges(self):
        with pytest.raises(TopologyError):
            split_gpu_datacenters(make_citta_studi(), num_edge_gpu=100)
