"""Diurnal (time-of-day) workload: sinusoidally modulated arrivals.

Edge demand is famously diurnal; a single time-independent plan either
over-provisions the night or under-provisions the evening peak. This
workload generator exercises the time-windowed planning extension
(:mod:`repro.plan.windowed`): the aggregate arrival rate follows

    λ(t) = λ_mean · (1 + amplitude · sin(2π · t / period + phase))

with the usual Zipf ingress popularity and Table III demand/duration
distributions.
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import Application
from repro.errors import WorkloadError
from repro.registry import register_trace
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import child_rng
from repro.workload.popularity import assign_node_popularity
from repro.workload.trace import Trace, TraceConfig, draw_slot, trace_from_slots


def diurnal_rates(
    num_slots: int,
    mean_rate: float,
    amplitude: float = 0.6,
    period: int = 200,
    phase: float = 0.0,
) -> np.ndarray:
    """Per-slot arrival rates of the sinusoidal day/night cycle."""
    if not 0 <= amplitude < 1:
        raise WorkloadError("amplitude must be in [0, 1)")
    if period < 2:
        raise WorkloadError("period must span at least two slots")
    t = np.arange(num_slots)
    return mean_rate * (
        1.0 + amplitude * np.sin(2.0 * np.pi * t / period + phase)
    )


@register_trace(
    "diurnal",
    description="sinusoidal day/night arrival cycle (windowed-planning study)",
)
def generate_diurnal_trace(
    substrate: SubstrateNetwork,
    apps: list[Application],
    config: TraceConfig,
    rng: np.random.Generator,
    amplitude: float = 0.6,
    period: int | None = None,
    phase: float = 0.0,
) -> Trace:
    """A trace whose aggregate rate follows a day/night cycle.

    ``period`` defaults to one-third of the history phase, so the planning
    history observes several full cycles and the online phase starts at
    the same point in the cycle it would historically (making windowed
    plans directly transferable).
    """
    edge_nodes = substrate.edge_nodes
    popularity = assign_node_popularity(
        edge_nodes, child_rng(rng, "popularity"), config.zipf_alpha
    )
    probabilities = np.array([popularity[v] for v in edge_nodes])
    if period is None:
        period = max(2, config.history_slots // 3)
    rates = diurnal_rates(
        config.total_slots,
        config.arrivals_per_node * len(edge_nodes),
        amplitude=amplitude,
        period=period,
        phase=phase,
    )
    counts = child_rng(rng, "diurnal-arrivals").poisson(rates)
    body_rng = child_rng(rng, "diurnal-requests")
    return trace_from_slots(
        config, edge_nodes, popularity, counts,
        lambda t, count: draw_slot(count, probabilities, len(apps), config, body_rng),
    )
