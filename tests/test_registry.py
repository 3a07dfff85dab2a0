"""Tests for the pluggable component registries (repro.registry)."""

import pytest

from repro.errors import (
    ApplicationError,
    RegistryError,
    SimulationError,
    TopologyError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import (
    algorithms_need_plan,
    build_scenario,
    make_algorithm,
)
from repro.registry import (
    Registry,
    algorithm_registry,
    app_mix_registry,
    efficiency_registry,
    register_algorithm,
    register_topology,
    topology_registry,
    trace_registry,
)
from repro.substrate.topologies import make_topology


class TestRegistryCore:
    def test_decorator_registers_entry_with_metadata(self):
        registry = Registry("widget")

        @registry.register("W1", description="a widget", color="blue")
        def make_w1():
            return "w1"

        entry = registry.get("W1")
        assert entry.name == "W1"
        assert entry.description == "a widget"
        assert entry.metadata["color"] == "blue"
        assert registry.create("W1") == "w1"
        assert "W1" in registry
        assert registry.names() == ("W1",)

    def test_docstring_first_line_is_default_description(self):
        registry = Registry("widget")

        @registry.register("W2")
        def make_w2():
            """Second widget.

            More detail.
            """

        assert registry.get("W2").description == "Second widget."

    def test_duplicate_registration_rejected(self):
        registry = Registry("widget")
        registry.register("DUP")(lambda: None)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("DUP")(lambda: None)

    def test_duplicate_builtin_algorithm_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_algorithm("OLIVE")(lambda scenario: None)

    def test_unknown_name_error_lists_known_entries(self):
        registry = Registry("widget")
        registry.register("A")(lambda: None)
        registry.register("B")(lambda: None)
        with pytest.raises(RegistryError, match=r"unknown widget 'C'") as err:
            registry.get("C")
        assert "['A', 'B']" in str(err.value)

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("X")(lambda: None)
        registry.unregister("X")
        assert "X" not in registry
        with pytest.raises(RegistryError, match="cannot unregister"):
            registry.unregister("X")

    def test_domain_error_classes(self):
        with pytest.raises(SimulationError):
            algorithm_registry.get("NOPE")
        with pytest.raises(TopologyError):
            topology_registry.get("NOPE")
        with pytest.raises(SimulationError):
            trace_registry.get("NOPE")
        with pytest.raises(ApplicationError):
            app_mix_registry.get("NOPE")
        with pytest.raises(SimulationError):
            efficiency_registry.get("NOPE")

    def test_late_registration_is_live(self):
        @register_topology("TinyTestNet", description="test-only")
        def make_tiny():
            from tests.conftest import make_line_substrate

            return make_line_substrate()

        try:
            assert "TinyTestNet" in topology_registry
            assert topology_registry.get("TinyTestNet").factory is make_tiny
            assert make_topology("TinyTestNet").name == "line4"
        finally:
            topology_registry.unregister("TinyTestNet")
        assert "TinyTestNet" not in topology_registry


class TestBuiltinEntries:
    def test_builtin_algorithms_registered(self):
        assert set(algorithm_registry.names()) >= {
            "OLIVE", "QUICKG", "FULLG", "SLOTOFF", "OLIVE-W", "OLIVE-RE",
        }

    def test_needs_plan_metadata(self):
        assert algorithm_registry.get("OLIVE").needs_plan
        assert algorithm_registry.get("OLIVE-W").needs_plan
        assert algorithm_registry.get("OLIVE-RE").needs_plan
        assert not algorithm_registry.get("QUICKG").needs_plan
        assert not algorithm_registry.get("FULLG").needs_plan
        assert not algorithm_registry.get("SLOTOFF").needs_plan

    def test_algorithms_need_plan_helper(self):
        assert algorithms_need_plan(["OLIVE", "QUICKG"])
        assert algorithms_need_plan(["OLIVE-W"])
        assert not algorithms_need_plan(["QUICKG", "SLOTOFF"])
        with pytest.raises(SimulationError, match="unknown algorithm"):
            algorithms_need_plan(["MAGIC"])

    def test_default_metrics_metadata(self):
        entry = algorithm_registry.get("OLIVE")
        assert "rejection_rate" in entry.metrics
        assert "total_cost" in entry.metrics

    def test_builtin_topologies_traces_mixes(self):
        assert set(topology_registry.names()) == {
            "Iris", "CittaStudi", "5GEN", "100N150E",
            "tiered-x", "waxman", "prefattach", "caida-x",
        }
        assert set(trace_registry.names()) >= {
            "mmpp", "caida", "diurnal",
            "pareto-burst", "ingress-hotspot", "capacity-probe",
        }
        assert set(app_mix_registry.names()) >= {
            "standard", "chain", "tree", "accelerator", "gpu",
            "tenants", "tenants-premium", "scale",
        }
        assert set(efficiency_registry.names()) >= {"uniform", "gpu"}


class TestScenarioDispatch:
    """build_scenario resolves every component through the registries."""

    def test_unknown_topology_names_registry_and_keys(self):
        config = ExperimentConfig.test(topology="Atlantis")
        with pytest.raises(TopologyError, match="unknown topology") as err:
            build_scenario(config, seed=0)
        assert "Iris" in str(err.value)

    def test_unknown_app_mix_names_registry_and_keys(self):
        config = ExperimentConfig.test(app_mix="hexagon")
        with pytest.raises(ApplicationError, match="unknown app mix") as err:
            build_scenario(config, seed=0, with_plan=False)
        assert "standard" in str(err.value)

    def test_unknown_trace_kind_names_registry_and_keys(self):
        config = ExperimentConfig.test(trace_kind="pcap")
        with pytest.raises(SimulationError, match="unknown trace kind") as err:
            build_scenario(config, seed=0, with_plan=False)
        assert "mmpp" in str(err.value)

    def test_unknown_efficiency_names_registry_and_keys(self):
        config = ExperimentConfig.test(efficiency="quantum")
        with pytest.raises(
            SimulationError, match="unknown efficiency model"
        ) as err:
            build_scenario(config, seed=0, with_plan=False)
        assert "uniform" in str(err.value)

    def test_unknown_algorithm_names_registry_and_keys(self, test_scenario):
        with pytest.raises(SimulationError, match="unknown algorithm") as err:
            make_algorithm("MAGIC", test_scenario)
        assert "OLIVE" in str(err.value)

    def test_diurnal_trace_kind_is_config_reachable(self):
        config = ExperimentConfig.test(
            trace_kind="diurnal", history_slots=60, online_slots=12,
            measure_start=2, measure_stop=10,
        )
        scenario = build_scenario(config, seed=0, with_plan=False)
        assert scenario.trace.num_requests

    def test_explicit_efficiency_choice(self):
        config = ExperimentConfig.test(efficiency="gpu")
        scenario = build_scenario(config, seed=0, with_plan=False)
        assert scenario.efficiency.__class__.__name__ == "GpuAwareEfficiency"


class TestPlannedVariants:
    """OLIVE-W / OLIVE-RE are first-class registry algorithms."""

    @pytest.fixture(scope="class")
    def tiny_config(self):
        return ExperimentConfig.test(
            history_slots=60, online_slots=12, measure_start=2,
            measure_stop=10,
        )

    def test_windowed_variant_builds_and_runs(self, tiny_config):
        from repro.api import run_single

        scenario, results = run_single(tiny_config, 0, ["OLIVE-W"])
        # needs_plan metadata ⇒ the scenario-level plan was computed too.
        assert not scenario.plan.is_empty
        assert results["OLIVE-W"].algorithm_name == "OLIVE-W"

    def test_replanning_variant_seeds_from_scenario_plan(self, tiny_config):
        scenario = build_scenario(tiny_config, seed=0)
        algorithm = make_algorithm("OLIVE-RE", scenario)
        assert algorithm.name == "OLIVE-RE"
        # The offline plan seeds the replanner instead of starting empty.
        assert algorithm.plan is scenario.plan
