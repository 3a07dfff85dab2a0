"""Tests for the fluent experiment facade (repro.api)."""

import csv
import io

import pytest

from repro import api
from repro.baselines.noderank import NodeRankAlgorithm
from repro.errors import SimulationError
from repro.experiments import figures
from repro.experiments.__main__ import main
from repro.experiments.cache import configure_cache
from repro.experiments.config import ExperimentConfig
from repro.registry import algorithm_registry, register_algorithm


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig.test(
        history_slots=60, online_slots=12, measure_start=2, measure_stop=10,
    )


_WALLCLOCK_SUFFIXES = (":runtime", ":slots_per_sec", ":requests_per_sec")


def _drop_runtime(summary):
    """Wall-clock metrics are genuine timings — never compared."""
    return {
        key: value
        for key, value in summary.items()
        if not key.endswith(_WALLCLOCK_SUFFIXES)
    }


class TestFluentBuilder:
    def test_chained_calls_do_not_mutate(self, tiny_config):
        base = api.Experiment(tiny_config).algorithms("OLIVE")
        forked = base.perturb(shift_plan_ingress=True).sweep(
            "utilization", (0.8, 1.2)
        )
        assert base._perturbations == ()
        assert base._sweeps == ()
        assert forked._perturbations == (("shift_plan_ingress", True),)

    def test_requires_experiment_config(self):
        with pytest.raises(SimulationError, match="ExperimentConfig"):
            api.Experiment("Iris")

    def test_unknown_algorithm_fails_fast(self, tiny_config):
        with pytest.raises(SimulationError, match="unknown algorithm"):
            api.Experiment(tiny_config).algorithms("MAGIC")

    def test_empty_algorithms_rejected(self, tiny_config):
        with pytest.raises(SimulationError, match="at least one"):
            api.Experiment(tiny_config).algorithms()

    def test_unknown_sweep_param_rejected(self, tiny_config):
        with pytest.raises(SimulationError, match="unknown sweep parameter"):
            api.Experiment(tiny_config).sweep("warp_factor", (1, 2))

    def test_empty_sweep_rejected(self, tiny_config):
        with pytest.raises(SimulationError, match="no values"):
            api.Experiment(tiny_config).sweep("utilization", ())

    def test_duplicate_sweep_axis_rejected(self, tiny_config):
        experiment = api.Experiment(tiny_config).sweep("utilization", (1.0,))
        with pytest.raises(SimulationError, match="already swept"):
            experiment.sweep("utilization", (1.2,))

    def test_unknown_perturbation_rejected(self, tiny_config):
        with pytest.raises(SimulationError, match="unknown perturbation"):
            api.Experiment(tiny_config).perturb(gravity=9.81)

    def test_points_cartesian_product(self, tiny_config):
        experiment = (
            api.Experiment(tiny_config)
            .sweep("utilization", (0.8, 1.2))
            .sweep("plan_utilization", (0.6,))
        )
        points = experiment.points()
        assert len(points) == 2
        params, config, scenario_kwargs = points[0]
        assert params == {"utilization": 0.8, "plan_utilization": 0.6}
        # Config fields land in the config; perturbations in scenario kwargs.
        assert config.utilization == 0.8
        assert scenario_kwargs == {"plan_utilization": 0.6}

    def test_repetitions_and_seed_conveniences(self, tiny_config):
        experiment = api.Experiment(tiny_config).repetitions(5).seed(42)
        assert experiment.config.repetitions == 5
        assert experiment.config.base_seed == 42


class TestSweepResult:
    @pytest.fixture(scope="class")
    def result(self, tiny_config):
        return (
            api.Experiment(tiny_config)
            .algorithms("QUICKG")
            .sweep("utilization", (0.8, 1.2))
            .run()
        )

    def test_iteration_and_keyed(self, result):
        assert len(result) == 2
        keyed = result.keyed("utilization")
        assert set(keyed) == {0.8, 1.2}
        assert "QUICKG:rejection_rate" in keyed[0.8]

    def test_keyed_unknown_param(self, result):
        with pytest.raises(SimulationError, match="not swept"):
            result.keyed("topology")

    def test_keyed_rejects_multi_axis_sweeps(self, tiny_config):
        # A flat {value -> summary} over one axis would silently drop the
        # other axis's points; building the (unexecuted) result is enough.
        multi = api.SweepResult(
            [], algorithms=("QUICKG",),
            sweep_params=("utilization", "app_mix"),
        )
        with pytest.raises(SimulationError, match="ambiguous"):
            multi.keyed("utilization")

    def test_summary_requires_single_point(self, result):
        with pytest.raises(SimulationError, match="2 sweep points"):
            result.summary

    def test_to_rows_tidy_shape(self, result):
        rows = result.to_rows()
        # 2 points × 1 algorithm × 11 metrics (see DEFAULT_METRICS)
        assert len(rows) == 22
        row = rows[0]
        assert row["algorithm"] == "QUICKG"
        assert {"utilization", "metric", "mean", "half_width", "low",
                "high", "count", "confidence"} <= set(row)

    def test_to_csv_roundtrip(self, result, tmp_path):
        path = tmp_path / "out.csv"
        text = result.to_csv(path)
        assert path.read_text() == text
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(result.to_rows())
        assert parsed[0]["algorithm"] == "QUICKG"

    def test_table_contains_algorithms_and_params(self, result):
        table = result.table("rejection_rate")
        assert "QUICKG" in table.splitlines()[0]
        assert "utilization" in table.splitlines()[0]
        assert "0.8" in table

    def test_metrics_listing(self, result):
        assert "rejection_rate" in result.metrics()
        assert "total_cost" in result.metrics()

    def test_point_value_lookup(self, result):
        interval = result[0].value("QUICKG", "rejection_rate")
        assert 0.0 <= interval.mean <= 1.0
        with pytest.raises(SimulationError, match="no summary"):
            result[0].value("QUICKG", "nonexistent")


class TestFacadeMatchesFigures:
    """The facade and the figure drivers are bit-identical."""

    def test_matches_figure_driver(self, tiny_config):
        driver = figures.run_rejection_vs_utilization(
            tiny_config, (1.2,), algorithms=("QUICKG",)
        )
        facade = (
            api.Experiment(tiny_config)
            .algorithms("QUICKG")
            .sweep("utilization", (1.2,))
            .run()
            .keyed("utilization")
        )
        assert _drop_runtime(driver[1.2]) == _drop_runtime(facade[1.2])

    def test_cached_equals_uncached(self, tiny_config, tmp_path):
        configure_cache(enabled=True, root=tmp_path / "api-cache")
        experiment = api.Experiment(tiny_config).algorithms("QUICKG")
        first = experiment.run().summary
        second = experiment.run().summary  # cache hit
        bypass = experiment.run(cache=False).summary  # recomputed
        assert first == second
        assert _drop_runtime(first) == _drop_runtime(bypass)

    @pytest.mark.slow
    def test_serial_equals_jobs4(self, tiny_config):
        experiment = (
            api.Experiment(tiny_config.with_(repetitions=2))
            .algorithms("OLIVE", "QUICKG")
        )
        serial = experiment.run(jobs=1).summary
        pooled = experiment.run(jobs=4).summary
        assert _drop_runtime(serial) == _drop_runtime(pooled)


class TestThirdPartyAlgorithm:
    """A custom algorithm registered outside repro runs end-to-end."""

    def test_registered_algorithm_runs_through_facade(
        self, tiny_config, capsys
    ):
        @register_algorithm(
            "NODERANK",
            needs_plan=False,
            description="Cheng et al.-style node ranking (registered in-test)",
        )
        def make_noderank(scenario):
            return NodeRankAlgorithm(
                scenario.substrate, scenario.apps, scenario.efficiency
            )

        try:
            result = (
                api.Experiment(tiny_config)
                .algorithms("NODERANK", "QUICKG")
                .run()
            )
            rejection = result.summary["NODERANK:rejection_rate"]
            assert 0.0 <= rejection.mean <= 1.0
            # The plan is skipped: no registered algorithm needs one.
            assert not api.algorithms_need_plan(["NODERANK", "QUICKG"])
            # And the CLI's `list` target shows it alongside the built-ins.
            assert main(["list"]) == 0
            out = capsys.readouterr().out
            assert "NODERANK" in out
            assert "OLIVE" in out
        finally:
            algorithm_registry.unregister("NODERANK")

    def test_cli_algo_flag_uses_registry(self, capsys):
        code = main(["fig8", "--scale", "test", "--algo", "QUICKG"])
        assert code == 0
        assert "QUICKG" in capsys.readouterr().out

    def test_cli_algo_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--scale", "test", "--algo", "MAGIC"])
        assert excinfo.value.code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_cli_algo_flag_warns_on_fixed_figures(self, capsys):
        # fig12 on a non-Iris topology exits early (code 2), cheaply
        # exercising the --algo-is-ignored notice.
        code = main(["fig12", "--topology", "CittaStudi", "--scale", "test",
                     "--algo", "QUICKG"])
        assert code == 2
        assert "--algo is ignored" in capsys.readouterr().out


class TestPluginCacheKeys:
    def test_builtin_points_have_no_plugin_fingerprint(self, tiny_config):
        assert api._plugin_fingerprint(tiny_config, ("OLIVE", "QUICKG")) is None

    def test_external_factory_changes_the_fingerprint(self, tiny_config):
        @register_algorithm("EXT", needs_plan=False, description="external")
        def make_ext(scenario):  # pragma: no cover - never instantiated
            return None

        try:
            fingerprint = api._plugin_fingerprint(tiny_config, ("EXT",))
            # This test module is outside the repro package, so the point
            # is fingerprinted — and keyed differently than built-ins.
            assert fingerprint is not None
            assert api._plugin_fingerprint(tiny_config, ("OLIVE",)) is None
        finally:
            algorithm_registry.unregister("EXT")
