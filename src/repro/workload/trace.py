"""Trace assembly: full request streams for the planning + online phases.

A trace covers ``history_slots + online_slots`` consecutive slots; the
prefix forms R_HIST (input to time-aggregation and PLAN-VNE) and the suffix
is the online workload OLIVE processes. Both phases are drawn from the same
process unless an experiment deliberately breaks that assumption (Fig. 13,
Fig. 14 studies — see :mod:`repro.experiments.figures`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.apps.application import Application
from repro.errors import WorkloadError
from repro.registry import register_trace
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import child_rng
from repro.workload.arrivals import MMPPProcess
from repro.workload.popularity import assign_node_popularity
from repro.workload.request import Request, RequestColumns

#: One slot's draws: the ingress, app_index, demand and duration columns.
SlotColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class TraceConfig:
    """Knobs of the Table III workload.

    ``demand_mean``/``demand_std`` default to the paper's N(10, 4); use
    :func:`demand_mean_for_utilization` to retarget the mean (the paper
    sweeps 6–14 to obtain 60–140 % edge utilization).
    """

    history_slots: int = 5400
    online_slots: int = 600
    arrivals_per_node: float = 10.0
    demand_mean: float = 10.0
    demand_std: float = 4.0
    duration_mean: float = 10.0
    zipf_alpha: float = 1.0
    mmpp_burstiness: float = 0.5
    mmpp_switch_probability: float = 0.1
    #: Demands below this floor are clamped (N(μ, σ) has a negative tail).
    demand_floor: float = 0.1

    def __post_init__(self) -> None:
        if self.history_slots < 1 or self.online_slots < 1:
            raise WorkloadError("trace needs at least one slot in each phase")
        # Requests are built from the draws unchecked (Request.trusted), so
        # every parameter the draws depend on is checked here, NaN included.
        positive = ("demand_mean", "demand_floor", "duration_mean")
        for name in (*positive, "demand_std", "arrivals_per_node"):
            value = getattr(self, name)
            low_ok = value > 0 or (value == 0 and name not in positive)
            if not (low_ok and math.isfinite(value)):
                sign = "positive" if name in positive else "non-negative"
                raise WorkloadError(f"{name} must be finite and {sign}, got {value!r}")

    @property
    def total_slots(self) -> int:
        return self.history_slots + self.online_slots


@dataclass(eq=False)
class Trace:
    """A generated request stream, split into history and online phases.

    The stream is held as :class:`RequestColumns` in (arrival, id)
    order, and the id of a request is its row. Each phase's
    :class:`Request` list is built from the columns on its first call.
    """

    config: TraceConfig
    columns: RequestColumns
    node_popularity: dict[str, float]
    _history: list[Request] | None = field(default=None, init=False, repr=False)
    _online: list[Request] | None = field(default=None, init=False, repr=False)

    @property
    def _cut(self) -> int:
        """Row of the first online request."""
        return int(np.searchsorted(self.columns.arrival, self.config.history_slots))

    def history_columns(self) -> RequestColumns:
        """The planning (history) phase, as views of the columns."""
        return self.columns.rows(0, self._cut)

    def history_requests(self) -> list[Request]:
        """Requests arriving during the planning (history) phase."""
        if self._history is None:
            self._history = self._requests(0, self._cut, 0)
        return self._history

    def online_requests(self) -> list[Request]:
        """Requests arriving during the online phase, re-based to slot 0."""
        if self._online is None:
            self._online = self._requests(
                self._cut, self.num_requests, self.config.history_slots
            )
        return self._online

    def _requests(self, start: int, stop: int, base: int) -> list[Request]:
        """Rows ``[start, stop)`` as Requests, arrivals less ``base``."""
        rows = self.columns.rows(start, stop)
        nodes, make = rows.nodes, Request.trusted
        # The draws' clamps and TraceConfig's checks guarantee the
        # Request invariants (0 < demand < ∞, duration ≥ 1).
        return [
            make(arrival, request_id, app, nodes[node], demand, duration)
            for request_id, arrival, app, node, demand, duration in zip(
                range(start, stop), (rows.arrival - base).tolist(),
                rows.app_index.tolist(), rows.ingress.tolist(),
                rows.demand.tolist(), rows.duration.tolist(),
            )
        ]

    @property
    def num_requests(self) -> int:
        return len(self.columns.arrival)

    def mean_rate(self) -> float:
        """Mean arrivals per slot over the whole trace."""
        return self.num_requests / self.config.total_slots


def mean_application_footprint(apps: list[Application]) -> float:
    """Mean Σβ_i (node footprint per unit demand) over an application set."""
    if not apps:
        raise WorkloadError("empty application set")
    return float(np.mean([app.total_node_size() for app in apps]))


def demand_mean_for_utilization(
    utilization: float,
    substrate: SubstrateNetwork,
    apps: list[Application],
    arrivals_per_node: float = 10.0,
    duration_mean: float = 10.0,
) -> float:
    """Demand mean that yields the requested edge utilization.

    The paper defines 100 % utilization as: mean total size of active
    requests = total capacity of all edge datacenters. By Little's law the
    expected number of active requests is (λ · #edge_nodes) · E[T]; each
    consumes E[d] · E[Σβ] node capacity, so::

        E[d] = utilization · cap_edge / (λ · n_edge · E[T] · E[Σβ])
    """
    if utilization <= 0:
        raise WorkloadError("utilization must be positive")
    num_edge = len(substrate.edge_nodes)
    if num_edge == 0:
        raise WorkloadError(f"substrate {substrate.name!r} has no edge nodes")
    active = arrivals_per_node * num_edge * duration_mean
    footprint = mean_application_footprint(apps)
    return utilization * substrate.total_edge_capacity() / (active * footprint)


def draw_slot(
    count: int,
    probabilities: np.ndarray,
    num_apps: int,
    config: TraceConfig,
    rng: np.random.Generator,
) -> SlotColumns:
    """The Table III draws for ``count`` requests arriving in one slot."""
    ingress = rng.choice(len(probabilities), size=count, p=probabilities)
    app_index = rng.integers(0, num_apps, size=count)
    demand = np.maximum(
        config.demand_floor,
        rng.normal(config.demand_mean, config.demand_std, size=count),
    )
    duration = np.maximum(
        1, np.ceil(rng.exponential(config.duration_mean, size=count))
    ).astype(int)
    return ingress, app_index, demand, duration


def trace_from_slots(
    config: TraceConfig,
    nodes: list[str],
    node_popularity: dict[str, float],
    counts: np.ndarray,
    draw: Callable[[int, int], SlotColumns],
) -> Trace:
    """Assemble a trace from per-slot arrival ``counts``.

    ``draw(t, count)`` returns the columns of the ``count`` requests
    arriving in slot ``t``. It is called for every slot with arrivals,
    in slot order, so the generator's RNG stream is consumed in that
    order and never for an empty slot.
    """
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty.astype(float), empty)]
    parts += [draw(t, count) for t, count in enumerate(counts.tolist()) if count]
    ingress, app_index, demand, duration = (np.concatenate(c) for c in zip(*parts))
    arrival = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return Trace(
        config,
        RequestColumns(nodes, arrival, app_index, ingress, demand, duration),
        node_popularity,
    )


@register_trace("mmpp", description="bursty MMPP arrivals (Table III default)")
def generate_mmpp_trace(
    substrate: SubstrateNetwork,
    apps: list[Application],
    config: TraceConfig,
    rng: np.random.Generator,
) -> Trace:
    """The paper's first trace: bursty MMPP arrivals, Zipf edge ingress.

    A single modulating chain drives the aggregate rate (bursts are
    network-wide, as in vehicular/edge measurement studies); each arrival's
    ingress is drawn from the Zipf popularity map.
    """
    edge_nodes = substrate.edge_nodes
    popularity = assign_node_popularity(
        edge_nodes, child_rng(rng, "popularity"), config.zipf_alpha
    )
    probabilities = np.array([popularity[v] for v in edge_nodes])
    process = MMPPProcess(
        mean_rate=config.arrivals_per_node * len(edge_nodes),
        burstiness=config.mmpp_burstiness,
        switch_probability=config.mmpp_switch_probability,
    )
    counts = process.counts(config.total_slots, child_rng(rng, "mmpp"))
    body_rng = child_rng(rng, "requests")
    return trace_from_slots(
        config, edge_nodes, popularity, counts,
        lambda t, count: draw_slot(count, probabilities, len(apps), config, body_rng),
    )


@register_trace(
    "caida", description="heavy-tailed CAIDA-like source aggregation (Fig. 15)"
)
def generate_caida_like_trace(
    substrate: SubstrateNetwork,
    apps: list[Application],
    config: TraceConfig,
    rng: np.random.Generator,
    num_sources: int = 500,
    pareto_shape: float = 1.5,
) -> Trace:
    """CAIDA-substitute trace: heavy-tailed source aggregation.

    The paper aggregates requests of the 2019 Equinix-NewYork CAIDA trace
    by IP source and randomly assigns the groups to datacenters. We model
    the same operative structure: ``num_sources`` traffic sources with
    Pareto-distributed weights (heavy-tailed, like per-IP traffic volumes),
    each statically mapped to a random edge datacenter; arrivals are
    Poisson in aggregate and attributed to sources by weight.
    """
    if num_sources < 1:
        raise WorkloadError("need at least one traffic source")
    edge_nodes = substrate.edge_nodes
    setup_rng = child_rng(rng, "caida-setup")
    weights = setup_rng.pareto(pareto_shape, size=num_sources) + 1.0
    weights /= weights.sum()
    source_node = setup_rng.integers(0, len(edge_nodes), size=num_sources)

    # Collapse sources into effective per-node probabilities.
    node_prob = np.zeros(len(edge_nodes))
    for s in range(num_sources):
        node_prob[source_node[s]] += weights[s]
    popularity = {
        edge_nodes[i]: float(node_prob[i]) for i in range(len(edge_nodes))
    }

    rate = config.arrivals_per_node * len(edge_nodes)
    counts = child_rng(rng, "caida-arrivals").poisson(
        rate, size=config.total_slots
    )
    body_rng = child_rng(rng, "caida-requests")
    return trace_from_slots(
        config, edge_nodes, popularity, counts,
        lambda t, count: draw_slot(count, node_prob, len(apps), config, body_rng),
    )
