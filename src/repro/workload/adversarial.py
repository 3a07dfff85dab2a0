"""Adversarial and heavy-tailed workloads: the scenario stress tier.

The Table III processes (:mod:`repro.workload.trace`) are *statistically
friendly*: arrivals are stationary, the online phase is drawn from the
same distribution the plan observed, and ingress popularity is fixed.
The generators here deliberately break each of those assumptions:

``pareto-burst``
    Heavy-tailed burst sizes — per-slot rates carry a Pareto
    multiplier, so rare slots bring order-of-magnitude arrival spikes
    (the flash-crowd statistics measured in CDN and edge traces).
``ingress-hotspot``
    Non-stationary ingress — arrivals concentrate on a small hotspot
    set of edge nodes, and the hotspot *rotates* between the history
    and online phases, so the PLAN-VNE patterns were fit to the wrong
    geography.
``capacity-probe``
    Bimodal demand — a stream of near-free probe requests interleaved
    with rare near-capacity, long-lived spikes, the classic pattern
    that defeats utilization-threshold admission heuristics.

All three reuse the Table III demand/duration machinery where they do
not deliberately distort it, so results stay comparable to the
baseline ``mmpp`` trace.
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import Application
from repro.errors import WorkloadError
from repro.registry import register_trace
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import child_rng
from repro.workload.popularity import assign_node_popularity
from repro.workload.trace import (
    SlotColumns,
    Trace,
    TraceConfig,
    draw_slot,
    trace_from_slots,
)


def pareto_burst_counts(
    num_slots: int,
    mean_rate: float,
    rng: np.random.Generator,
    shape: float = 2.5,
) -> np.ndarray:
    """Per-slot arrival counts with Pareto-modulated rates.

    Each slot's Poisson rate is ``mean_rate`` times a unit-mean Pareto
    multiplier with tail index ``shape``; smaller shapes give heavier
    burst tails. ``shape`` must exceed 1 so the multiplier has a finite
    mean (and the trace a well-defined offered load).
    """
    if shape <= 1.0:
        raise WorkloadError(
            f"pareto-burst shape must exceed 1 (finite mean), got {shape}"
        )
    # Lomax(shape) has mean 1/(shape-1); rescale to a unit-mean modifier.
    multipliers = rng.pareto(shape, size=num_slots) * (shape - 1.0)
    return rng.poisson(mean_rate * multipliers)


@register_trace(
    "pareto-burst",
    description="heavy-tailed Pareto burst arrivals (flash-crowd statistics)",
)
def generate_pareto_burst_trace(
    substrate: SubstrateNetwork,
    apps: list[Application],
    config: TraceConfig,
    rng: np.random.Generator,
    shape: float = 2.5,
) -> Trace:
    """Heavy-tailed bursts: Zipf ingress, Pareto-modulated slot rates."""
    edge_nodes = substrate.edge_nodes
    popularity = assign_node_popularity(
        edge_nodes, child_rng(rng, "popularity"), config.zipf_alpha
    )
    probabilities = np.array([popularity[v] for v in edge_nodes])
    counts = pareto_burst_counts(
        config.total_slots,
        config.arrivals_per_node * len(edge_nodes),
        child_rng(rng, "pareto-burst"),
        shape=shape,
    )
    body_rng = child_rng(rng, "pareto-requests")
    return trace_from_slots(
        config, edge_nodes, popularity, counts,
        lambda t, count: draw_slot(count, probabilities, len(apps), config, body_rng),
    )


def hotspot_probabilities(
    num_nodes: int,
    hotspot: np.ndarray,
    concentration: float,
) -> np.ndarray:
    """Ingress distribution putting ``concentration`` mass on the hotspot."""
    num_hot = len(hotspot)
    if not 0 < num_hot < num_nodes:
        raise WorkloadError(
            "hotspot must be a strict non-empty subset of the edge nodes"
        )
    probabilities = np.full(
        num_nodes, (1.0 - concentration) / (num_nodes - num_hot)
    )
    probabilities[hotspot] = concentration / num_hot
    return probabilities


@register_trace(
    "ingress-hotspot",
    description="rotating ingress hotspot — online geography defeats the plan",
)
def generate_ingress_hotspot_trace(
    substrate: SubstrateNetwork,
    apps: list[Application],
    config: TraceConfig,
    rng: np.random.Generator,
    hotspot_fraction: float = 0.1,
    concentration: float = 0.8,
) -> Trace:
    """Adversarial ingress: a rotating hotspot carries most arrivals.

    During the history phase ``concentration`` of the traffic enters
    through a ``hotspot_fraction`` subset of edge nodes; at the online
    boundary the hotspot jumps to a *disjoint* subset, so the plan's
    per-ingress patterns were fit against geography that no longer
    sends traffic. Aggregate rate stays plain Poisson — the adversary
    moves load, it does not add any.
    """
    if not 0 < hotspot_fraction <= 0.5:
        raise WorkloadError(
            f"hotspot_fraction must be in (0, 0.5], got {hotspot_fraction}"
        )
    if not 0 < concentration < 1:
        raise WorkloadError(
            f"concentration must be in (0, 1), got {concentration}"
        )
    edge_nodes = substrate.edge_nodes
    if len(edge_nodes) < 2:
        raise WorkloadError("ingress-hotspot needs at least two edge nodes")
    num_hot = max(1, int(round(hotspot_fraction * len(edge_nodes))))
    num_hot = min(num_hot, len(edge_nodes) // 2)
    order = child_rng(rng, "hotspot-sites").permutation(len(edge_nodes))
    history_prob = hotspot_probabilities(
        len(edge_nodes), order[:num_hot], concentration
    )
    online_prob = hotspot_probabilities(
        len(edge_nodes), order[num_hot: 2 * num_hot], concentration
    )
    counts = child_rng(rng, "hotspot-arrivals").poisson(
        config.arrivals_per_node * len(edge_nodes), size=config.total_slots
    )
    body_rng = child_rng(rng, "hotspot-requests")
    popularity = {
        edge_nodes[i]: float(history_prob[i]) for i in range(len(edge_nodes))
    }
    return trace_from_slots(
        config, edge_nodes, popularity, counts,
        lambda t, count: draw_slot(
            count,
            history_prob if t < config.history_slots else online_prob,
            len(apps), config, body_rng,
        ),
    )


@register_trace(
    "capacity-probe",
    description="bimodal probe/spike demands that bait admission heuristics",
)
def generate_capacity_probe_trace(
    substrate: SubstrateNetwork,
    apps: list[Application],
    config: TraceConfig,
    rng: np.random.Generator,
    probe_fraction: float = 0.9,
    spike_multiplier: float = 8.0,
    spike_duration_multiplier: float = 4.0,
) -> Trace:
    """Capacity probing: floods of tiny requests hiding rare huge ones.

    ``probe_fraction`` of arrivals carry the minimum demand
    (``config.demand_floor``) and a one-slot duration — nearly free to
    admit, so greedy admission happily fills up on them. The remainder
    are spikes at ``spike_multiplier`` × the configured demand mean
    with ``spike_duration_multiplier`` × the mean duration: exactly the
    requests a capacity-commitment made to probes forces the embedder
    to reject.
    """
    if not 0 < probe_fraction < 1:
        raise WorkloadError(
            f"probe_fraction must be in (0, 1), got {probe_fraction}"
        )
    if spike_multiplier <= 1 or spike_duration_multiplier < 1:
        raise WorkloadError("spike multipliers must amplify, not shrink")
    edge_nodes = substrate.edge_nodes
    popularity = assign_node_popularity(
        edge_nodes, child_rng(rng, "popularity"), config.zipf_alpha
    )
    probabilities = np.array([popularity[v] for v in edge_nodes])
    counts = child_rng(rng, "probe-arrivals").poisson(
        config.arrivals_per_node * len(edge_nodes), size=config.total_slots
    )
    body_rng = child_rng(rng, "probe-requests")

    def draw(t: int, count: int) -> SlotColumns:
        ingress = body_rng.choice(len(edge_nodes), size=count, p=probabilities)
        app_index = body_rng.integers(0, len(apps), size=count)
        is_probe = body_rng.uniform(size=count) < probe_fraction
        demand = np.where(
            is_probe,
            config.demand_floor,
            np.maximum(
                config.demand_floor,
                body_rng.normal(
                    spike_multiplier * config.demand_mean,
                    config.demand_std,
                    size=count,
                ),
            ),
        )
        duration = np.where(
            is_probe,
            1,
            np.maximum(
                1,
                np.ceil(
                    body_rng.exponential(
                        spike_duration_multiplier * config.duration_mean,
                        size=count,
                    )
                ),
            ).astype(int),
        )
        return ingress, app_index, demand, duration

    return trace_from_slots(config, edge_nodes, popularity, counts, draw)
