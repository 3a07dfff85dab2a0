"""Experiment drivers reproducing every figure of the paper's evaluation.

:mod:`repro.experiments.config` holds the Table III parameters and the
laptop-scale presets; :mod:`repro.experiments.scenario` assembles one
simulation scenario (substrate + apps + trace + plan) and registers the
built-in algorithms; :mod:`repro.experiments.figures` has one driver per
paper figure, each a thin wrapper over the fluent :mod:`repro.api`
facade; :mod:`repro.experiments.cache` persists sweep results on disk
keyed by parameters + code version.
"""

from repro.experiments.cache import ResultCache, configure_cache, get_active_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    collect_node_timeline,
    run_balance_quantiles,
    run_by_application,
    run_caida,
    run_demand_zoom,
    run_gpu_scenario,
    run_rejection_vs_utilization,
    run_runtime_scaling,
    run_shifted_plan,
    run_unexpected_demand,
)
from repro.experiments.scenario import (
    ALGORITHM_NAMES,
    Scenario,
    algorithms_need_plan,
    build_scenario,
    make_algorithm,
)

__all__ = [
    "ALGORITHM_NAMES",
    "ExperimentConfig",
    "ResultCache",
    "configure_cache",
    "get_active_cache",
    "Scenario",
    "algorithms_need_plan",
    "build_scenario",
    "make_algorithm",
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
]
