"""Time aggregation of request histories into PLAN-VNE inputs (Sec. III-A).

Grouping: r̃_{a,v} = requests of application a arriving at ingress v
(Eq. 5). Per-class demand series: d(r̃, t) = Σ d(r) over requests of the
class active at slot t. Expected demand: d(r̃) = P̂_α of that series
(Eq. 6), estimated by bootstrap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.stats.bootstrap import bootstrap_percentile
from repro.utils.rng import child_rng
from repro.workload.request import Request, RequestColumns

ClassKey = tuple[int, str]


@dataclass(frozen=True)
class AggregateRequest:
    """One aggregated request class r̃_{a,v} with its expected demand d(r̃)."""

    app_index: int
    ingress: str
    demand: float

    @property
    def class_key(self) -> ClassKey:
        return (self.app_index, self.ingress)


def class_demand_series(
    requests: Sequence[Request] | RequestColumns, num_slots: int
) -> dict[ClassKey, np.ndarray]:
    """Per-class active-demand time series d(r̃, t) over ``num_slots`` slots.

    A request contributes its demand to every slot in [t(r), t(r)+T(r)).
    Activity past the horizon is truncated at ``num_slots``. A
    ``Request`` sequence is converted to columns first.
    """
    if num_slots < 1:
        raise WorkloadError("need at least one slot")
    if not isinstance(requests, RequestColumns):
        requests = RequestColumns.of(requests)
    nodes = requests.nodes
    starts = np.minimum(requests.arrival, num_slots)
    stops = np.minimum(requests.arrival + requests.duration, num_slots)
    lengths = stops - starts
    # np.unique's stable sort groups the rows by class; ``first`` keeps
    # the classes in order of first appearance, as a dict walk would.
    classes, first, row_class = np.unique(
        requests.app_index * len(nodes) + requests.ingress,
        return_index=True, return_inverse=True,
    )
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    # Concatenated [start, stop) ranges, one per request in request
    # order, each shifted into its class's row of one flat buffer. Every
    # cell belongs to one class, and np.add.at applies the unbuffered
    # adds in index order, so each cell sums its class's demands in
    # request order from 0.0: the per-request slice accumulation of the
    # scalar loop, bit for bit.
    offsets = np.cumsum(lengths) - lengths
    positions = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
        row_class[keep] * num_slots + starts - offsets, lengths
    )
    out = np.zeros((len(classes), num_slots))
    demands = np.repeat(requests.demand[keep], lengths)
    np.add.at(out.reshape(-1), positions, demands)
    series: dict[ClassKey, np.ndarray] = {}
    for k in np.argsort(first).tolist():
        app_index, node = divmod(int(classes[k]), len(nodes))
        series[(app_index, nodes[node])] = out[k]
    return series


def build_aggregate_demand(
    requests: Sequence[Request] | RequestColumns,
    num_slots: int,
    alpha: float = 80.0,
    num_resamples: int = 200,
    rng: np.random.Generator | None = None,
    min_demand: float = 1e-9,
) -> list[AggregateRequest]:
    """Aggregate a history into PLAN-VNE's input request set R̃.

    Classes whose estimated demand is ≤ ``min_demand`` are dropped — they
    contribute nothing to the plan and would only bloat the LP.

    Results are sorted by class key so the LP layout is deterministic.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    series = class_demand_series(requests, num_slots)
    aggregates: list[AggregateRequest] = []
    for key in sorted(series):
        app_index, ingress = key
        estimate = bootstrap_percentile(
            series[key],
            alpha=alpha,
            num_resamples=num_resamples,
            rng=child_rng(rng, "bootstrap", app_index, ingress),
        )
        if estimate.estimate > min_demand:
            aggregates.append(
                AggregateRequest(
                    app_index=app_index, ingress=ingress,
                    demand=estimate.estimate,
                )
            )
    return aggregates
