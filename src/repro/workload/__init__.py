"""Workload generation: requests, arrival processes, and traces.

Implements the paper's experimental workload (Sec. IV-A, Table III):
requests originate exclusively from edge datacenters with Zipf(α=1) node
popularity, demands are N(10, 4²) (scaled to hit a target edge utilization),
durations are exponential with mean 10 slots, and arrivals follow either a
Markov-modulated Poisson process (bursty synthetic trace) or a CAIDA-like
heavy-tailed source model.
"""

from repro.workload.adversarial import (
    generate_capacity_probe_trace,
    generate_ingress_hotspot_trace,
    generate_pareto_burst_trace,
    hotspot_probabilities,
    pareto_burst_counts,
)
from repro.workload.arrivals import MMPPProcess, PoissonProcess
from repro.workload.diurnal import diurnal_rates, generate_diurnal_trace
from repro.workload.popularity import assign_node_popularity, zipf_weights
from repro.workload.request import Request, RequestColumns
from repro.workload.trace import (
    Trace,
    TraceConfig,
    demand_mean_for_utilization,
    generate_caida_like_trace,
    generate_mmpp_trace,
    mean_application_footprint,
)

__all__ = [
    "Request",
    "RequestColumns",
    "MMPPProcess",
    "PoissonProcess",
    "zipf_weights",
    "assign_node_popularity",
    "Trace",
    "TraceConfig",
    "generate_mmpp_trace",
    "generate_caida_like_trace",
    "demand_mean_for_utilization",
    "mean_application_footprint",
    "diurnal_rates",
    "generate_diurnal_trace",
    "generate_pareto_burst_trace",
    "generate_ingress_hotspot_trace",
    "generate_capacity_probe_trace",
    "pareto_burst_counts",
    "hotspot_probabilities",
]
