"""repro — reproduction of "Plan-Based Scalable Online Virtual Network
Embedding" (OLIVE, ICDCS 2025).

Public API quick-map:

* the fluent experiment facade — :mod:`repro.api` (start here);
* pluggable component registries — :mod:`repro.registry`
  (``@register_algorithm``, ``@register_topology``, ...);
* substrate networks — :mod:`repro.substrate` (four evaluation topologies);
* applications / virtual networks — :mod:`repro.apps`;
* workload traces — :mod:`repro.workload`;
* demand aggregation — :mod:`repro.stats`;
* the PLAN-VNE LP and embedding plans — :mod:`repro.plan`;
* the OLIVE online algorithm — :mod:`repro.core`;
* baselines (QUICKG, FULLG, SLOTOFF) — :mod:`repro.baselines`;
* dynamic chaos scenarios (failures, drains, flash crowds) —
  :mod:`repro.scenarios`;
* the simulator, streaming sessions, and metrics — :mod:`repro.sim`;
* the live embedding-service layer (admission policies, rolling
  metrics) — :mod:`repro.serve`;
* paper-figure experiment drivers — :mod:`repro.experiments`.

Minimal end-to-end example::

    from repro import Experiment, ExperimentConfig

    result = (
        Experiment(ExperimentConfig.test())
        .algorithms("OLIVE", "QUICKG")
        .sweep("utilization", (0.6, 1.0, 1.4))
        .run(jobs=4)
    )
    print(result.table("rejection_rate"))

The lower-level building blocks stay public — ``build_scenario`` /
``make_algorithm`` / ``simulate`` assemble and run one repetition by
hand when the facade is too coarse.
"""

# isort: skip_file
#
# The imports below are in *dependency* order, not alphabetical order,
# and must stay that way: this __init__ runs before any `repro.*`
# submodule import, so it is what resolves the plan <-> core cycle
# (plan.replanning -> core.olive -> core.embedding -> plan.pattern).
# Importing `repro.plan` before `repro.core` guarantees `plan.pattern`
# is fully initialized by the time `core.embedding` needs it;
# alphabetizing (api first) enters the cycle from the wrong side and
# raises ImportError at interpreter start.

from repro.errors import (
    ApplicationError,
    InfeasibleError,
    LPError,
    PlanError,
    RegistryError,
    ReproError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from repro.substrate import (
    SubstrateNetwork,
    Tier,
    make_100n150e,
    make_5gen,
    make_citta_studi,
    make_iris,
    make_topology,
    split_gpu_datacenters,
)
from repro.apps import (
    Application,
    VNF,
    VNFKind,
    VirtualLink,
    draw_standard_mix,
    make_accelerator,
    make_chain,
    make_gpu_chain,
    make_tree,
)
from repro.workload import (
    Request,
    Trace,
    TraceConfig,
    demand_mean_for_utilization,
    generate_caida_like_trace,
    generate_mmpp_trace,
)
from repro.stats import (
    AggregateRequest,
    bootstrap_percentile,
    build_aggregate_demand,
    class_demand_series,
)
from repro.plan import (
    ClassPlan,
    EmbeddingPattern,
    Plan,
    PlanVNEConfig,
    compute_plan,
    empty_plan,
)
from repro.core import Decision, Embedding, OliveAlgorithm, greedy_embed
from repro.baselines import FullGAlgorithm, SlotOffAlgorithm, make_quickg
from repro.sim import (
    SessionSnapshot,
    SimulationResult,
    SimulationSession,
    SlotReport,
    balance_index,
    confidence_interval,
    cost_breakdown,
    demand_series,
    rejection_rate,
    simulate,
)
from repro.serve import EmbedderService, MetricsStream, ServiceMetrics
from repro.shard import (
    ShardedEmbedderService,
    SubstratePartition,
    partition_substrate,
)
from repro.experiments import (
    ExperimentConfig,
    algorithms_need_plan,
    build_scenario,
    make_algorithm,
)
from repro.api import Experiment, SweepPoint, SweepResult
from repro.registry import (
    Registry,
    RegistryEntry,
    admission_policy_registry,
    algorithm_registry,
    app_mix_registry,
    efficiency_registry,
    event_profile_registry,
    register_admission_policy,
    register_algorithm,
    register_app_mix,
    register_efficiency,
    register_event_profile,
    register_topology,
    register_trace,
    topology_registry,
    trace_registry,
)
from repro.scenarios import EventSchedule

__version__ = "1.3.0"

__all__ = [
    # errors
    "ReproError",
    "LPError",
    "InfeasibleError",
    "TopologyError",
    "ApplicationError",
    "WorkloadError",
    "PlanError",
    "RegistryError",
    "SimulationError",
    # substrate
    "SubstrateNetwork",
    "Tier",
    "make_iris",
    "make_citta_studi",
    "make_5gen",
    "make_100n150e",
    "make_topology",
    "split_gpu_datacenters",
    # apps
    "Application",
    "VNF",
    "VNFKind",
    "VirtualLink",
    "make_chain",
    "make_tree",
    "make_accelerator",
    "make_gpu_chain",
    "draw_standard_mix",
    # workload
    "Request",
    "Trace",
    "TraceConfig",
    "generate_mmpp_trace",
    "generate_caida_like_trace",
    "demand_mean_for_utilization",
    # stats
    "AggregateRequest",
    "class_demand_series",
    "build_aggregate_demand",
    "bootstrap_percentile",
    # plan
    "Plan",
    "ClassPlan",
    "EmbeddingPattern",
    "PlanVNEConfig",
    "compute_plan",
    "empty_plan",
    # core
    "OliveAlgorithm",
    "Decision",
    "Embedding",
    "greedy_embed",
    # baselines
    "make_quickg",
    "FullGAlgorithm",
    "SlotOffAlgorithm",
    # sim
    "simulate",
    "SimulationResult",
    "SimulationSession",
    "SessionSnapshot",
    "SlotReport",
    # serve
    "EmbedderService",
    "MetricsStream",
    "ServiceMetrics",
    # shard
    "ShardedEmbedderService",
    "SubstratePartition",
    "partition_substrate",
    "rejection_rate",
    "cost_breakdown",
    "balance_index",
    "demand_series",
    "confidence_interval",
    # experiments
    "ExperimentConfig",
    "algorithms_need_plan",
    "build_scenario",
    "make_algorithm",
    # facade
    "Experiment",
    "SweepPoint",
    "SweepResult",
    # dynamic events
    "EventSchedule",
    # registries
    "Registry",
    "RegistryEntry",
    "algorithm_registry",
    "topology_registry",
    "trace_registry",
    "app_mix_registry",
    "efficiency_registry",
    "event_profile_registry",
    "admission_policy_registry",
    "register_algorithm",
    "register_topology",
    "register_trace",
    "register_app_mix",
    "register_efficiency",
    "register_event_profile",
    "register_admission_policy",
]
