"""Scenario assembly: substrate + applications + trace + plan for one run.

A :class:`Scenario` is everything a simulation needs, built deterministically
from an :class:`ExperimentConfig` and a seed. Every string-keyed component
(topology, app mix, trace kind, efficiency model, algorithm) is resolved
through :mod:`repro.registry`, so third-party components registered with
the ``@register_*`` decorators participate without edits here.

The builder supports the evaluation's perturbation studies:

* ``plan_utilization`` — build the plan from a history whose demand level
  corresponds to a different utilization than the online phase encounters
  (Fig. 13, "unexpected demand");
* ``shift_plan_ingress`` — randomly remap the ingress of every history
  request before planning (Fig. 14, "spatial distribution change");
* ``num_quantiles`` — override P of the PLAN-VNE LP (Fig. 11).

This module also registers the built-in algorithms: the paper's OLIVE /
QUICKG / FULLG / SLOTOFF plus the two planner extensions, ``OLIVE-W``
(time-windowed plans from :mod:`repro.plan.windowed`) and ``OLIVE-RE``
(periodic online replanning from :mod:`repro.plan.replanning`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel
from repro.baselines.fullg import FullGAlgorithm
from repro.baselines.quickg import make_quickg
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.core.olive import OliveAlgorithm
from repro.errors import WorkloadError
from repro.experiments.config import ExperimentConfig
from repro.plan.api import compute_plan
from repro.plan.formulation import PlanVNEConfig
from repro.plan.pattern import Plan
from repro.plan.replanning import ReplanningOliveAlgorithm
from repro.plan.windowed import (
    PlanSchedule,
    WindowedOliveAlgorithm,
    compute_windowed_plans,
)
from repro.registry import (
    algorithm_registry,
    app_mix_registry,
    efficiency_registry,
    register_algorithm,
    trace_registry,
)
from repro.stats.aggregate import build_aggregate_demand
from repro.substrate.network import SubstrateNetwork
from repro.substrate.topologies import make_topology, split_gpu_datacenters
from repro.utils.rng import child_rng, make_rng
from repro.workload.request import Request
from repro.workload.trace import (
    Trace,
    TraceConfig,
    demand_mean_for_utilization,
)


@dataclass
class Scenario:
    """One fully assembled simulation scenario."""

    config: ExperimentConfig
    seed: int
    substrate: SubstrateNetwork
    apps: list[Application]
    efficiency: EfficiencyModel
    trace: Trace
    plan: Plan

    def online_requests(self) -> list[Request]:
        return self.trace.online_requests()


def _draw_apps(config: ExperimentConfig, rng) -> list[Application]:
    """Draw the application set named by ``config.app_mix`` (registry)."""
    return app_mix_registry.create(config.app_mix, rng)


def _make_efficiency(config: ExperimentConfig) -> EfficiencyModel:
    """Resolve the efficiency model: explicit config choice or auto."""
    name = config.efficiency or ("gpu" if config.gpu_scenario else "uniform")
    return efficiency_registry.create(name)


def build_scenario(
    config: ExperimentConfig,
    seed: int,
    plan_utilization: float | None = None,
    shift_plan_ingress: bool = False,
    num_quantiles: int | None = None,
    with_plan: bool = True,
) -> Scenario:
    """Assemble the scenario for one repetition (Alg. 1 steps 1–2)."""
    rng = make_rng(seed)
    substrate = make_topology(config.topology)
    if config.gpu_scenario:
        substrate = split_gpu_datacenters(
            substrate, seed=seed
        )
    efficiency = _make_efficiency(config)

    apps = _draw_apps(config, child_rng(rng, "apps"))
    demand_mean = demand_mean_for_utilization(
        config.utilization,
        substrate,
        apps,
        arrivals_per_node=config.arrivals_per_node,
        duration_mean=config.duration_mean,
    )
    trace_config = TraceConfig(
        history_slots=config.history_slots,
        online_slots=config.online_slots,
        arrivals_per_node=config.arrivals_per_node,
        demand_mean=demand_mean,
        demand_std=config.demand_cv * demand_mean,
        duration_mean=config.duration_mean,
    )
    trace_rng = child_rng(rng, "trace")
    trace = trace_registry.create(
        config.trace_kind, substrate, apps, trace_config, trace_rng
    )

    plan = Plan()
    if with_plan:
        history = trace.history_columns()
        if plan_utilization is not None and plan_utilization != config.utilization:
            if not 0 < plan_utilization < math.inf:
                raise WorkloadError("plan_utilization must be positive and finite")
            scale = plan_utilization / config.utilization
            history = replace(history, demand=history.demand * scale)
        if shift_plan_ingress:
            # One draw per history request, in request order: the stream
            # a scalar draw per request would consume.
            edge_nodes = substrate.edge_nodes
            history = replace(
                history,
                nodes=edge_nodes,
                ingress=child_rng(rng, "shift").integers(
                    0, len(edge_nodes), size=len(history.ingress)
                ),
            )
        aggregates = build_aggregate_demand(
            history,
            config.history_slots,
            alpha=config.percentile_alpha,
            rng=child_rng(rng, "bootstrap"),
        )
        plan = compute_plan(
            substrate,
            apps,
            aggregates,
            efficiency,
            PlanVNEConfig(
                num_quantiles=(
                    num_quantiles
                    if num_quantiles is not None
                    else config.num_quantiles
                )
            ),
        )
    return Scenario(
        config=config,
        seed=seed,
        substrate=substrate,
        apps=apps,
        efficiency=efficiency,
        trace=trace,
        plan=plan,
    )


# -- built-in algorithms -------------------------------------------------------

#: Metrics every built-in algorithm reports per run (see
#: :func:`repro.api.summarize_run`). The last three quantify resilience
#: under dynamic events (:mod:`repro.scenarios.events`) and take their
#: event-free defaults (0 / 1.0 / 0) on undisturbed runs.
DEFAULT_METRICS = (
    "rejection_rate",
    "resource_cost",
    "rejection_cost",
    "total_cost",
    "runtime",
    "slots_per_sec",
    "requests_per_sec",
    "balance",
    "disrupted_rate",
    "availability",
    "recovery_time",
)

#: Windows used by the registered ``OLIVE-W`` variant.
OLIVE_W_WINDOWS = 4


@register_algorithm(
    "OLIVE",
    needs_plan=True,
    metrics=DEFAULT_METRICS,
    description="plan-guided online embedding with borrowing (Alg. 2)",
)
def _make_olive(scenario: Scenario) -> OliveAlgorithm:
    return OliveAlgorithm(
        scenario.substrate,
        scenario.apps,
        scenario.plan,
        efficiency=scenario.efficiency,
    )


@register_algorithm(
    "QUICKG",
    needs_plan=False,
    metrics=DEFAULT_METRICS,
    description="plan-less greedy with strict collocation (baseline)",
)
def _make_quickg(scenario: Scenario):
    return make_quickg(
        scenario.substrate, scenario.apps, scenario.efficiency,
    )


@register_algorithm(
    "FULLG",
    needs_plan=False,
    metrics=DEFAULT_METRICS,
    description="exact per-request minimum-cost embedding (tree DP baseline)",
)
def _make_fullg(scenario: Scenario) -> FullGAlgorithm:
    return FullGAlgorithm(
        scenario.substrate, scenario.apps, scenario.efficiency
    )


@register_algorithm(
    "SLOTOFF",
    needs_plan=False,
    metrics=DEFAULT_METRICS,
    description="per-slot offline LP upper baseline",
)
def _make_slotoff(scenario: Scenario) -> SlotOffAlgorithm:
    return SlotOffAlgorithm(
        scenario.substrate,
        scenario.apps,
        scenario.efficiency,
        PlanVNEConfig(num_quantiles=scenario.config.num_quantiles),
    )


@register_algorithm(
    "OLIVE-W",
    needs_plan=True,
    metrics=DEFAULT_METRICS,
    description=f"OLIVE switching between {OLIVE_W_WINDOWS} time-windowed plans",
)
def _make_olive_windowed(scenario: Scenario) -> WindowedOliveAlgorithm:
    config = scenario.config
    schedule = compute_windowed_plans(
        scenario.substrate,
        scenario.apps,
        scenario.trace.history_columns(),
        config.history_slots,
        config.online_slots,
        num_windows=min(OLIVE_W_WINDOWS, config.history_slots),
        alpha=config.percentile_alpha,
        efficiency=scenario.efficiency,
        config=PlanVNEConfig(num_quantiles=config.num_quantiles),
        rng=child_rng(make_rng(scenario.seed), "windowed-plans"),
    )
    if any(plan.is_empty for plan in schedule.plans):
        # A window with no observed demand yields an empty plan, which
        # would make OLIVE-W run plan-less (pure greedy) for that stretch;
        # fall back to the scenario's whole-history plan there instead.
        schedule = PlanSchedule(
            starts=schedule.starts,
            plans=[
                scenario.plan if plan.is_empty else plan
                for plan in schedule.plans
            ],
            period=schedule.period,
        )
    return WindowedOliveAlgorithm(
        scenario.substrate,
        scenario.apps,
        schedule,
        efficiency=scenario.efficiency,
    )


@register_algorithm(
    "OLIVE-RE",
    needs_plan=True,
    metrics=DEFAULT_METRICS,
    description="OLIVE re-solving PLAN-VNE periodically from observed demand",
)
def _make_olive_replanning(scenario: Scenario) -> ReplanningOliveAlgorithm:
    config = scenario.config
    interval = max(1, config.online_slots // 4)
    return ReplanningOliveAlgorithm(
        scenario.substrate,
        scenario.apps,
        interval=interval,
        window=2 * interval,
        alpha=config.percentile_alpha,
        efficiency=scenario.efficiency,
        plan_config=PlanVNEConfig(num_quantiles=config.num_quantiles),
        seed_plan=scenario.plan,
        seed=scenario.seed,
        name="OLIVE-RE",
    )


#: The built-in algorithm names (snapshot; the registry is the live source).
ALGORITHM_NAMES = ("OLIVE", "QUICKG", "FULLG", "SLOTOFF", "OLIVE-W", "OLIVE-RE")


def algorithms_need_plan(names: Sequence[str]) -> bool:
    """Whether any of ``names`` requires the offline plan (registry metadata)."""
    return any(algorithm_registry.get(name).needs_plan for name in names)


def make_algorithm(name: str, scenario: Scenario):
    """Instantiate a fresh algorithm for one simulation run.

    Thin shim over ``repro.registry.algorithm_registry`` — prefer
    ``algorithm_registry.create(name, scenario)`` in new code.
    """
    return algorithm_registry.create(name, scenario)
