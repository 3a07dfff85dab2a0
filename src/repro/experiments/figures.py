"""One driver per paper figure (Sec. IV-B), built on :mod:`repro.api`.

Every driver is a thin wrapper over the fluent
:class:`~repro.api.Experiment` facade: it selects algorithms, sweep axes
and perturbations, runs through the shared parallel-runner + result-cache
engine, and returns plain dicts of
:class:`~repro.sim.runner.ConfidenceInterval` values keyed by
``"{algorithm}:{metric}"`` — ready for the benchmark harness to print
paper-shaped tables.

Single repetitions and sweep points are :func:`repro.api.run_single`,
:func:`repro.api.summarize_run` and :func:`repro.api.run_point`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import api
from repro.api import DEFAULT_ALGORITHMS
from repro.experiments.config import ExperimentConfig
from repro.sim.metrics import NodeTimeline, demand_series
from repro.sim.runner import ConfidenceInterval, ParallelRunner

__all__ = [
    "DEFAULT_ALGORITHMS",
    "run_rejection_vs_utilization",
    "run_demand_zoom",
    "run_by_application",
    "run_gpu_scenario",
    "run_balance_quantiles",
    "collect_node_timeline",
    "run_unexpected_demand",
    "run_shifted_plan",
    "run_caida",
    "run_runtime_scaling",
    "RESILIENCE_PROFILES",
    "run_resilience",
    "SCALE_SIZES",
    "scale_config",
    "run_scale",
]


def _experiment(
    config: ExperimentConfig, algorithms: Sequence[str]
) -> api.Experiment:
    return api.Experiment(config).algorithms(*algorithms)


# -- Fig. 6 / Fig. 7: rejection rate and cost vs utilization -----------------


def run_rejection_vs_utilization(
    config: ExperimentConfig,
    utilizations: Sequence[float],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    runner: ParallelRunner | None = None,
) -> dict[float, dict[str, ConfidenceInterval]]:
    """The Fig. 6 (rejection) / Fig. 7 (cost) sweep for one topology."""
    result = (
        _experiment(config, algorithms)
        .sweep("utilization", utilizations)
        .run(runner=runner)
    )
    return result.keyed("utilization")


# -- Fig. 8: allocated-demand zoom -------------------------------------------


def run_demand_zoom(
    config: ExperimentConfig,
    zoom: tuple[int, int],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    seed: int | None = None,
) -> dict[str, dict]:
    """Per-slot requested vs allocated demand in a zoom window (Fig. 8)."""
    scenario, results = api.run_single(
        config, seed if seed is not None else config.base_seed, algorithms
    )
    return {
        name: demand_series(result, zoom) for name, result in results.items()
    }


# -- Fig. 9: sensitivity to application type ---------------------------------


def run_by_application(
    config: ExperimentConfig,
    app_types: Sequence[str] = ("chain", "tree", "accelerator", "standard"),
    algorithms: Sequence[str] = ("OLIVE", "QUICKG", "FULLG", "SLOTOFF"),
    runner: ParallelRunner | None = None,
) -> dict[str, dict[str, ConfidenceInterval]]:
    """Rejection rate per application type at one utilization (Fig. 9)."""
    result = (
        _experiment(config, algorithms)
        .sweep("app_mix", app_types)
        .run(runner=runner)
    )
    return result.keyed("app_mix")


# -- Fig. 10: the GPU scenario ------------------------------------------------


def run_gpu_scenario(
    config: ExperimentConfig,
    algorithms: Sequence[str] = ("OLIVE", "FULLG", "SLOTOFF"),
    runner: ParallelRunner | None = None,
) -> dict[str, ConfidenceInterval]:
    """GPU-constrained chains on the split-GPU substrate (Fig. 10).

    QUICKG is excluded by default, exactly as in the paper: its collocation
    restriction cannot express a placement split across GPU and non-GPU
    datacenters.
    """
    gpu_config = config.with_(gpu_scenario=True, app_mix="gpu")
    return dict(_experiment(gpu_config, algorithms).run(runner=runner).summary)


# -- Fig. 11: rejection balance vs quantile count ------------------------------


def run_balance_quantiles(
    config: ExperimentConfig,
    quantile_counts: Sequence[int] = (1, 2, 10, 50),
    runner: ParallelRunner | None = None,
) -> dict[str, ConfidenceInterval]:
    """Balance index for OLIVE at several P values plus QUICKG (Fig. 11)."""
    out: dict[str, ConfidenceInterval] = {}
    quickg = _experiment(config, ["QUICKG"]).run(runner=runner)
    out["QUICKG"] = quickg.points[0].value("QUICKG", "balance")
    olive = (
        _experiment(config, ["OLIVE"])
        .sweep("num_quantiles", quantile_counts)
        .run(runner=runner)
    )
    for point in olive:
        count = point.params["num_quantiles"]
        out[f"OLIVE:P={count}"] = point.value("OLIVE", "balance")
    return out


# -- Fig. 12: per-node allocation timeline ------------------------------------


def collect_node_timeline(
    config: ExperimentConfig,
    node: str = "Franklin",
    seed: int | None = None,
) -> NodeTimeline:
    """OLIVE's guaranteed/borrowed/preempted activity at one node (Fig. 12)."""
    scenario, results = api.run_single(
        config, seed if seed is not None else config.base_seed, ["OLIVE"]
    )
    return NodeTimeline.collect(
        results["OLIVE"], scenario.plan, node, len(scenario.apps)
    )


# -- Fig. 13: deviation from the expected demand -------------------------------


def run_unexpected_demand(
    config: ExperimentConfig,
    plan_utilizations: Sequence[float] = (0.6, 1.0),
    reference_algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    runner: ParallelRunner | None = None,
) -> dict[str, ConfidenceInterval]:
    """Plan for 60 %/100 % expected demand, run at the configured 140 %.

    Returns OLIVE's rejection rate per planning level, with OLIVE (plan at
    the true level), QUICKG and SLOTOFF as references.
    """
    out: dict[str, ConfidenceInterval] = {}
    reference = _experiment(config, reference_algorithms).run(runner=runner)
    for name in reference_algorithms:
        out[name] = reference.points[0].value(name, "rejection_rate")
    perturbed = (
        _experiment(config, ["OLIVE"])
        .sweep("plan_utilization", plan_utilizations)
        .run(runner=runner)
    )
    for point in perturbed:
        plan_utilization = point.params["plan_utilization"]
        out[f"OLIVE:plan={plan_utilization:.0%}"] = point.value(
            "OLIVE", "rejection_rate"
        )
    return out


# -- Fig. 14: spatially shifted plan -------------------------------------------


def run_shifted_plan(
    config: ExperimentConfig,
    utilizations: Sequence[float],
    algorithms: Sequence[str] = ("OLIVE", "QUICKG"),
    runner: ParallelRunner | None = None,
) -> dict[float, dict[str, ConfidenceInterval]]:
    """Plan built from randomly re-located history requests (Fig. 14)."""
    result = (
        _experiment(config, algorithms)
        .perturb(shift_plan_ingress=True)
        .sweep("utilization", utilizations)
        .run(runner=runner)
    )
    return result.keyed("utilization")


# -- Fig. 15: CAIDA-derived demand ---------------------------------------------


def run_caida(
    config: ExperimentConfig,
    utilizations: Sequence[float],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    runner: ParallelRunner | None = None,
) -> dict[float, dict[str, ConfidenceInterval]]:
    """The Fig. 6a experiment on the CAIDA-like trace (Fig. 15)."""
    result = (
        _experiment(config.with_(trace_kind="caida"), algorithms)
        .sweep("utilization", utilizations)
        .run(runner=runner)
    )
    return result.keyed("utilization")


# -- fig_resilience: dynamic-event stress battery (beyond the paper) -----------

#: The default stress battery of :func:`run_resilience` (all registered
#: built-in event profiles, in registration order).
RESILIENCE_PROFILES = (
    "link-flap",
    "node-maintenance",
    "flash-crowd",
    "degradation",
    "ingress-migration",
    "blackout",
)


def run_resilience(
    config: ExperimentConfig,
    profiles: Sequence[str] | None = None,
    algorithms: Sequence[str] = ("OLIVE", "QUICKG"),
    policy: str = "reroute",
    runner: ParallelRunner | None = None,
) -> dict[str, dict[str, ConfidenceInterval]]:
    """Dynamic-event stress battery (the ``fig_resilience`` driver).

    Runs the algorithms under each registered event profile (link flaps,
    node maintenance, flash crowds, degradations, ...) plus an
    undisturbed ``"none"`` baseline, and reports the resilience metrics
    (``disrupted_rate``, ``availability``, ``recovery_time``) next to the
    paper's rejection/cost metrics. Not a paper figure — the evaluation
    only exercises well-behaved planned demand; this driver is the
    chaos-scenario extension the ROADMAP asks for.

    Note on SLOTOFF: as a batch re-solver it sheds event-stranded
    requests through its next per-slot LP, reported as ordinary
    preemptions — its ``disrupted_rate`` is structurally 0 and its event
    losses show up in ``rejection_rate``/``availability`` instead (see
    :func:`repro.sim.metrics.disruption_rate`).
    """
    if profiles is None:
        profiles = RESILIENCE_PROFILES
    out: dict[str, dict[str, ConfidenceInterval]] = {}
    baseline = _experiment(config, algorithms).run(runner=runner)
    out["none"] = dict(baseline.summary)
    swept = (
        _experiment(config, algorithms)
        .perturb(event_policy=policy)
        .sweep("events", profiles)
        .run(runner=runner)
    )
    for profile, summary in swept.keyed("events").items():
        out[profile] = summary
    return out


# -- Fig. 16: runtime scalability ------------------------------------------------


def run_runtime_scaling(
    config: ExperimentConfig,
    arrival_rates: Sequence[float] = (2.0, 5.0, 10.0, 20.0),
    utilizations: Sequence[float] = (0.6, 1.0, 1.4),
    algorithms: Sequence[str] = ("OLIVE", "QUICKG"),
    runner: ParallelRunner | None = None,
) -> dict[str, dict]:
    """Runtime vs arrival rate (Fig. 16a) and vs utilization (Fig. 16b–e).

    Utilization is held constant while the arrival rate varies — the
    demand-mean calibration scales request sizes down as the rate goes up,
    exactly as in the paper ("we maintained the same utilization in all
    executions by scaling the mean request size").
    """
    by_rate_result = (
        _experiment(config, algorithms)
        .sweep("arrivals_per_node", arrival_rates)
        .run(runner=runner)
    )
    by_rate = {
        point.params["arrivals_per_node"]: {
            name: point.value(name, "runtime") for name in algorithms
        }
        for point in by_rate_result
    }
    by_utilization_result = (
        _experiment(config, algorithms)
        .sweep("utilization", utilizations)
        .run(runner=runner)
    )
    by_utilization = {
        point.params["utilization"]: {
            name: point.value(name, "runtime") for name in algorithms
        }
        for point in by_utilization_result
    }
    return {"by_rate": by_rate, "by_utilization": by_utilization}


# -- fig_scale: throughput vs generated substrate size (beyond the paper) -----

#: Topology-size ladder per CLI scale preset. The bench/paper ladders
#: span >=10x in node count; ``test`` stays small enough for smoke runs.
SCALE_SIZES = {
    "test": (30, 60),
    "bench": (40, 120, 400),
    "paper": (40, 120, 400, 800),
}


def scale_config(config: ExperimentConfig) -> ExperimentConfig:
    """Make ``config`` affordable at hundreds of substrate nodes.

    The PLAN-VNE LP's class count grows with substrate edges × apps, so
    four-app mixes become intractable past ~200 nodes; the single-chain
    ``scale`` mix keeps planning feasible across the whole ladder. The
    horizons shrink accordingly — the scale curve measures throughput,
    not rejection statistics, so long histories buy nothing here.
    """
    return config.with_(
        app_mix="scale",
        arrivals_per_node=min(config.arrivals_per_node, 2.0),
        history_slots=60,
        online_slots=30,
        measure_start=4,
        measure_stop=26,
    )


def run_scale(
    config: ExperimentConfig,
    sizes: Sequence[int] = SCALE_SIZES["bench"],
    family: str = "tiered-x",
    algorithms: Sequence[str] = ("OLIVE", "QUICKG"),
    runner: ParallelRunner | None = None,
) -> dict[int, dict[str, ConfidenceInterval]]:
    """Throughput vs substrate size (the ``fig_scale`` driver).

    Sweeps one generated topology family (``tiered-x`` by default — any
    registry entry with ``sized=True`` metadata works) across a ladder
    of node counts and reports the full metric summaries; the headline
    series are ``slots_per_sec`` and ``requests_per_sec``. Pass the
    config through :func:`scale_config` first — the default presets plan
    four-app mixes, which blow up the LP at the top of the ladder.
    """
    result = (
        _experiment(config, algorithms)
        .sweep("topology", tuple(f"{family}:{size}" for size in sizes))
        .run(runner=runner)
    )
    keyed = result.keyed("topology")
    return {size: keyed[f"{family}:{size}"] for size in sizes}
