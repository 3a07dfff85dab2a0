"""Tests for the experiments layer: config, scenario assembly, drivers."""

import pytest

from repro.api import run_single, summarize_run
from repro.errors import SimulationError
from repro.experiments.config import (
    BENCH_UTILIZATIONS,
    PAPER_UTILIZATIONS,
    ExperimentConfig,
)
from repro.experiments.scenario import build_scenario, make_algorithm


class TestConfig:
    def test_paper_defaults_match_table_iii(self):
        config = ExperimentConfig.paper()
        assert config.history_slots == 5400
        assert config.online_slots == 600
        assert config.measure_window == (100, 500)
        assert config.arrivals_per_node == 10.0
        assert config.duration_mean == 10.0
        assert config.num_quantiles == 10
        assert config.percentile_alpha == 80.0
        assert config.repetitions == 30

    def test_paper_utilization_sweep_covers_60_to_140(self):
        assert PAPER_UTILIZATIONS[0] == 0.6
        assert PAPER_UTILIZATIONS[-1] == 1.4
        assert set(BENCH_UTILIZATIONS) <= set(PAPER_UTILIZATIONS)

    def test_window_must_fit_online_phase(self):
        with pytest.raises(SimulationError):
            ExperimentConfig(online_slots=50, measure_start=10, measure_stop=60)

    def test_with_overrides(self):
        config = ExperimentConfig.test()
        changed = config.with_(utilization=1.4)
        assert changed.utilization == 1.4
        assert changed.topology == config.topology

    def test_presets_are_valid(self):
        ExperimentConfig.paper()
        ExperimentConfig.bench()
        ExperimentConfig.test()


class TestScenario:
    def test_deterministic_given_seed(self, test_config):
        a = build_scenario(test_config, seed=3)
        b = build_scenario(test_config, seed=3)
        assert a.trace.requests == b.trace.requests
        assert set(a.plan.classes) == set(b.plan.classes)

    def test_different_seed_different_trace(self, test_config):
        a = build_scenario(test_config, seed=3)
        b = build_scenario(test_config, seed=4)
        assert a.trace.requests != b.trace.requests

    def test_without_plan(self, test_config):
        scenario = build_scenario(test_config, seed=0, with_plan=False)
        assert scenario.plan.is_empty

    def test_plan_utilization_scaling_shrinks_guarantees(self, test_config):
        full = build_scenario(test_config, seed=2)
        scaled = build_scenario(test_config, seed=2, plan_utilization=0.5)
        assert (
            scaled.plan.total_guaranteed_demand()
            < full.plan.total_guaranteed_demand()
        )
        # The online workload itself must be identical.
        assert scaled.trace.requests == full.trace.requests

    def test_shifted_plan_keeps_online_trace(self, test_config):
        base = build_scenario(test_config, seed=2)
        shifted = build_scenario(test_config, seed=2, shift_plan_ingress=True)
        assert shifted.trace.requests == base.trace.requests
        # With shifted ingress the per-class guarantees differ.
        base_keys = {
            k: round(v.guaranteed_demand())
            for k, v in base.plan.classes.items()
        }
        shifted_keys = {
            k: round(v.guaranteed_demand())
            for k, v in shifted.plan.classes.items()
        }
        assert base_keys != shifted_keys

    def test_quantile_override(self, test_config):
        scenario = build_scenario(test_config, seed=0, num_quantiles=1)
        assert not scenario.plan.is_empty  # plan still computed

    def test_gpu_scenario_builds(self):
        config = ExperimentConfig.test(
            gpu_scenario=True, app_mix="gpu", online_slots=12,
            measure_start=2, measure_stop=10, history_slots=60,
        )
        scenario = build_scenario(config, seed=0)
        assert scenario.substrate.gpu_nodes()
        assert scenario.efficiency.__class__.__name__ == "GpuAwareEfficiency"

    def test_unknown_algorithm_raises(self, test_scenario):
        with pytest.raises(SimulationError, match="unknown algorithm"):
            make_algorithm("MAGIC", test_scenario)

    def test_unknown_trace_kind_raises(self):
        config = ExperimentConfig.test(trace_kind="pcap")
        with pytest.raises(SimulationError, match="unknown trace kind"):
            build_scenario(config, seed=0)

    @pytest.mark.parametrize("name", ["OLIVE", "QUICKG", "FULLG", "SLOTOFF"])
    def test_algorithm_factory(self, test_scenario, name):
        algorithm = make_algorithm(name, test_scenario)
        assert algorithm.name == name


class TestRunSingle:
    def test_metrics_cover_all_algorithms(self, test_config):
        scenario, results = run_single(
            test_config, seed=0, algorithms=("OLIVE", "QUICKG")
        )
        metrics = summarize_run(scenario, results)
        for name in ("OLIVE", "QUICKG"):
            for metric in (
                "rejection_rate",
                "resource_cost",
                "rejection_cost",
                "total_cost",
                "runtime",
                "balance",
            ):
                assert f"{name}:{metric}" in metrics

    def test_plan_skipped_when_olive_absent(self, test_config):
        scenario, _ = run_single(
            test_config, seed=0, algorithms=("QUICKG",)
        )
        assert scenario.plan.is_empty
