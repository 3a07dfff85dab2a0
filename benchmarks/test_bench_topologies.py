"""Table II / Fig. 5: the four physical topologies.

Regenerates the Table II rows (element counts, tier parameters) and checks
them against the published values; benchmarks topology construction time.
"""

from _bench_utils import record
from repro.registry import topology_registry
from repro.substrate.tiers import (
    TIER_LINK_CAPACITY,
    TIER_MEAN_NODE_COST,
    TIER_NODE_CAPACITY,
    Tier,
)

#: Table II published rows: name → (nodes, links).
PUBLISHED = {
    "Iris": (50, 64),
    "CittaStudi": (30, 35),
    "5GEN": (78, 100),
    "100N150E": (100, 150),
}


def test_table2_topologies(benchmark):
    def build_all():
        # Sized scale families (tiered-x, waxman, ...) have no published
        # Table II row; BENCH_scale covers them at parameterized sizes.
        return {name: topology_registry.create(name) for name in PUBLISHED}

    substrates = benchmark.pedantic(build_all, rounds=1, iterations=1)

    lines = ["Topology     Nodes  Links  Edge  Transport  Core"]
    for name, substrate in substrates.items():
        summary = substrate.summary()
        lines.append(
            f"{name:<12} {summary['nodes']:>5}  {summary['links']:>5}  "
            f"{summary['edge']:>4}  {summary['transport']:>9}  "
            f"{summary['core']:>4}"
        )
        assert (summary["nodes"], summary["links"]) == PUBLISHED[name]
    lines.append("")
    lines.append("Tier parameters (CU):")
    for tier in Tier:
        lines.append(
            f"  {tier.name.lower():<10} node cap {TIER_NODE_CAPACITY[tier]:>9.0f}  "
            f"mean node cost {TIER_MEAN_NODE_COST[tier]:>4.0f}  "
            f"link cap {TIER_LINK_CAPACITY[tier]:>9.0f}"
        )
    record("table2_topologies", lines)

    # Table II structure: ×3 capacity ratios between successive tiers.
    assert TIER_NODE_CAPACITY[Tier.TRANSPORT] == 3 * TIER_NODE_CAPACITY[Tier.EDGE]
    assert TIER_NODE_CAPACITY[Tier.CORE] == 3 * TIER_NODE_CAPACITY[Tier.TRANSPORT]
