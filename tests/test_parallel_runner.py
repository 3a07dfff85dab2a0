"""Tests for the parallel experiment orchestration subsystem.

Covers the pieces the subsystem is made of:

* :class:`repro.sim.runner.ParallelRunner` — ``jobs=1`` and ``jobs=4``
  must produce identical :class:`ConfidenceInterval` results;
* the worker boundary — the code a pool or shard worker runs writes no
  module-level state, and the parent-only writers refuse a worker;
* :mod:`repro.experiments.cache` — hit / miss / invalidation semantics;
* the CLI flags (``--jobs``, ``--no-cache``, ``--cache-dir``, ``all``).
"""

from __future__ import annotations

import pytest

from repro import api
from repro.api import Experiment, _PointTask
from repro.errors import SimulationError
from repro.experiments import cache as cache_mod
from repro.experiments.__main__ import FIGURES, RENDERERS, build_parser, main
from repro.experiments.cache import (
    ResultCache,
    configure_cache,
    get_active_cache,
    result_key,
)
from repro.experiments.config import ExperimentConfig
from repro.registry import Registry
from repro.shard.worker import ProcessShardWorker
from repro.sim import runner as runner_mod
from repro.sim.runner import (
    ConfidenceInterval,
    ParallelRunner,
    get_default_runner,
    set_default_runner,
    shutdown_pools,
)
from tests.conftest import MUTABLE_CONTAINERS, repro_module_bindings
from tests.test_shard import _drive


def deterministic_run(seed: int) -> dict[str, float]:
    """Module-level (hence picklable) stand-in for one repetition."""
    return {"rejection": (seed * 37 % 11) / 10.0, "cost": float(seed**2)}


class TestParallelRunner:
    def test_jobs4_identical_to_jobs1(self):
        serial = ParallelRunner(jobs=1).repeat(deterministic_run, 8, 5)
        parallel = ParallelRunner(jobs=4).repeat(deterministic_run, 8, 5)
        assert serial == parallel
        assert isinstance(serial["rejection"], ConfidenceInterval)
        assert serial["cost"].count == 8

    def test_serial_fallback_accepts_closures(self):
        seen = []

        def run(seed: int) -> dict[str, float]:
            seen.append(seed)
            return {"m": float(seed)}

        summary = ParallelRunner(jobs=1).repeat(run, 3, base_seed=10)
        assert seen == [10, 11, 12]
        assert summary["m"].mean == 11.0

    def test_jobs_must_be_positive(self):
        with pytest.raises(SimulationError):
            ParallelRunner(jobs=0)

    def test_repetitions_must_be_positive(self):
        with pytest.raises(SimulationError):
            ParallelRunner(jobs=2).repeat(deterministic_run, 0)

    def test_from_jobs_zero_means_cpu_count(self):
        import os

        assert ParallelRunner.from_jobs(0).jobs == (os.cpu_count() or 1)
        assert ParallelRunner.from_jobs(3).jobs == 3


def _crash_worker(seed: int) -> dict[str, float]:
    """Kill the worker process outright to break the pool."""
    import os

    os._exit(13)


class TestPoolLifecycle:
    def test_shutdown_pools_reaps_executors(self):
        runner = ParallelRunner(jobs=2)
        runner.repeat(deterministic_run, repetitions=2)
        assert len(runner_mod._pools) >= 1
        assert shutdown_pools() >= 1
        assert runner_mod._pools == {}
        # A fresh repeat after shutdown transparently builds a new pool.
        summary = runner.repeat(deterministic_run, repetitions=2)
        assert summary["cost"].count == 2
        shutdown_pools()

    def test_broken_pool_is_shut_down_on_eviction(self):
        from concurrent.futures.process import BrokenProcessPool

        runner = ParallelRunner(jobs=2)
        with pytest.raises(BrokenProcessPool):
            runner.repeat(_crash_worker, repetitions=2)
        # The poisoned executor was evicted *and* shut down — no zombie
        # entry remains for this worker count.
        assert 2 not in runner_mod._pools
        # The next run works again on a fresh pool.
        summary = runner.repeat(deterministic_run, repetitions=2)
        assert summary["cost"].count == 2
        shutdown_pools()


def _module_state() -> dict[str, dict[str, object]]:
    """Every loaded ``repro.*`` module's bindings, in a form that shows
    a write: identity (a rebind like ``_default_runner``'s), plus the
    contents of what is written in place — containers by value,
    registries by their names."""

    def seen(value):
        if isinstance(value, MUTABLE_CONTAINERS):
            return id(value), repr(value)
        if isinstance(value, Registry):
            return id(value), tuple(value.names())
        return id(value)

    return {
        module: {name: seen(value) for name, value in names.items()}
        for module, names in repro_module_bindings().items()
    }


def _write_parent_only_state(seed: int) -> dict[str, float]:
    """Pool task: call each parent-only writer; 1.0 where it refused."""
    writers = {
        "_shared_pool": lambda: runner_mod._shared_pool(2),
        "set_default_runner": lambda: set_default_runner(
            ParallelRunner(jobs=2)
        ),
        # The guard comes before the payload is so much as parsed.
        "ProcessShardWorker": lambda: ProcessShardWorker(0, b""),
    }
    refused = {}
    for name, write in writers.items():
        try:
            write()
        except SimulationError as error:
            refused[name] = float("parent-process-only" in str(error))
        else:
            refused[name] = 0.0
    return refused


class TestWorkerModuleState:
    """The worker boundary, audited on what the workers run.

    A pool or shard worker imports ``repro`` afresh and owns a private
    copy of every module-level binding, so whatever its code writes
    there diverges from the parent unseen.
    """

    def test_worker_entry_points_leave_module_state_alone(self):
        """Both real entry points, run in this process — a pool task
        (``_PointTask.__call__``) and a shard worker's command loop
        (``_execute``, through inline workers) — between two records of
        every module-level binding."""
        config = ExperimentConfig.test(
            online_slots=10, measure_start=2, measure_stop=8,
            history_slots=60, utilization=1.4, arrivals_per_node=4.0,
            num_quantiles=4,
        )
        before = _module_state()
        assert sum(map(len, before.values())) > 150
        assert "_pools" in before["repro.sim.runner"]

        task = _PointTask(
            config, ("OLIVE", "QUICKG", "SLOTOFF"), (("events", "blackout"),)
        )
        assert task(0)
        sharded = Experiment(config).algorithms("QUICKG").serve(
            seed=0, shards=2, shard_workers="inline"
        )
        with sharded:
            assert _drive(sharded, sharded.scenario, config.online_slots, 0)
            assert sharded.finish().decisions

        after = _module_state()
        moved = sorted(
            f"{module}.{name}"
            for module, names in before.items()
            for name in names.keys() | after[module].keys()
            if names.get(name) != after[module].get(name)
        )
        assert not moved, f"worker code wrote module-level state: {moved}"

    def test_parent_only_writers_refuse_a_pool_worker(self):
        """``_pools`` and ``_default_runner`` are written in four places,
        each behind ``_require_parent_process`` (as is spawning a shard
        worker): called from a pool worker, every one raises."""
        try:
            refused = ParallelRunner(jobs=2).repeat(
                _write_parent_only_state, repetitions=2
            )
        finally:
            shutdown_pools()
        assert {name: ci.mean for name, ci in refused.items()} == {
            "_shared_pool": 1.0,
            "set_default_runner": 1.0,
            "ProcessShardWorker": 1.0,
        }


class TestInconsistentKeys:
    def test_error_names_repetition_and_key_diff(self):
        def run(seed: int) -> dict[str, float]:
            if seed == 2:
                return {"other": 1.0}
            return {"expected": 1.0}

        with pytest.raises(SimulationError) as excinfo:
            ParallelRunner(jobs=1).repeat(run, 4, base_seed=0)
        message = str(excinfo.value)
        assert "repetition 2" in message
        assert "missing ['expected']" in message
        assert "unexpected ['other']" in message

    def test_error_is_identical_under_parallelism(self):
        def run(seed: int) -> dict[str, float]:
            return {"a": 1.0} if seed != 1 else {"b": 2.0}

        with pytest.raises(SimulationError, match="repetition 1"):
            ParallelRunner(jobs=1).repeat(run, 3)
        with pytest.raises(SimulationError, match="repetition 1"):
            ParallelRunner(jobs=2).repeat(_flaky_keys, 3)


def _flaky_keys(seed: int) -> dict[str, float]:
    """Picklable variant of the inconsistent-keys run."""
    return {"a": 1.0} if seed != 1 else {"b": 2.0}


@pytest.fixture
def sample_summary():
    return {
        "OLIVE:rejection_rate": ConfidenceInterval(
            mean=0.1, half_width=0.02, confidence=0.95, count=4
        ),
        "QUICKG:rejection_rate": ConfidenceInterval(
            mean=0.2, half_width=0.0, confidence=0.95, count=1
        ),
    }


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path, sample_summary):
        cache = ResultCache(tmp_path)
        key = result_key(ExperimentConfig.test(), "sweep", ["OLIVE"])
        assert cache.get(key) is None
        cache.put(key, sample_summary)
        assert cache.get(key) == sample_summary
        assert cache.hits == 1 and cache.misses == 1

    def test_key_changes_with_parameters(self):
        config = ExperimentConfig.test()
        base = result_key(config, "sweep", ["OLIVE"])
        assert result_key(config, "sweep", ["QUICKG"]) != base
        assert result_key(config, "other", ["OLIVE"]) != base
        assert (
            result_key(config.with_(utilization=1.4), "sweep", ["OLIVE"])
            != base
        )
        assert (
            result_key(config, "sweep", ["OLIVE"], extra={"num_quantiles": 2})
            != base
        )

    def test_key_is_stable(self):
        config = ExperimentConfig.test()
        assert result_key(config, "sweep", ["OLIVE"]) == result_key(
            config, "sweep", ["OLIVE"]
        )

    def test_code_change_invalidates(self, tmp_path, monkeypatch,
                                     sample_summary):
        config = ExperimentConfig.test()
        cache = ResultCache(tmp_path)
        cache.put(result_key(config, "sweep", ["OLIVE"]), sample_summary)
        monkeypatch.setattr(
            cache_mod, "code_fingerprint", lambda: "different-code"
        )
        assert cache.get(result_key(config, "sweep", ["OLIVE"])) is None

    def test_clear_removes_entries(self, tmp_path, sample_summary):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, sample_summary)
        cache.put("b" * 64, sample_summary)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_clear_sweeps_leaked_temp_files(self, tmp_path, sample_summary):
        cache = ResultCache(tmp_path)
        cache.put("a" * 64, sample_summary)
        # Simulate a writer that crashed between write_text and replace.
        shard = tmp_path / "cc"
        shard.mkdir()
        leak = shard / ("c" * 64 + ".tmp12345")
        leak.write_text("{half-written")
        assert cache.clear() == 1  # temp droppings are not counted...
        assert not leak.exists()  # ...but they are removed
        assert len(cache) == 0

    def test_mixed_key_types_hash_deterministically(self):
        config = ExperimentConfig.test()
        extra = {1: "a", "b": 2, 2.5: "c"}
        key = result_key(config, "sweep", ["OLIVE"], extra=extra)
        assert key == result_key(config, "sweep", ["OLIVE"], extra=extra)

    def test_colliding_stringified_keys_are_rejected(self):
        config = ExperimentConfig.test()
        with pytest.raises(SimulationError, match="stringify uniquely"):
            result_key(
                config, "sweep", ["OLIVE"], extra={"extra": {1: "a", "1": "b"}}
            )

    def test_unwritable_root_warns_instead_of_crashing(self, tmp_path,
                                                       sample_summary):
        blocker = tmp_path / "file-not-dir"
        blocker.write_text("")
        cache = ResultCache(blocker)
        with pytest.warns(UserWarning, match="cache write failed"):
            cache.put("d" * 64, sample_summary)

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "c" * 64
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("not json {")
        assert cache.get(key) is None

    def test_configure_cache_toggles_global(self, tmp_path):
        active = configure_cache(enabled=True, root=tmp_path)
        assert get_active_cache() is active
        assert active.root == tmp_path
        assert configure_cache(enabled=False) is None
        assert get_active_cache() is None


class TestSweepCaching:
    """run_point consults the active cache and skips recomputation on a hit."""

    @pytest.fixture
    def counted_sweep(self, monkeypatch):
        calls = []

        def fake_run_single(config, seed, algorithms, **kwargs):
            calls.append(seed)
            return None, {}

        def fake_summarize(scenario, results):
            return {"OLIVE:rejection_rate": 0.25}

        monkeypatch.setattr(api, "run_single", fake_run_single)
        monkeypatch.setattr(api, "summarize_run", fake_summarize)
        return calls

    def test_hit_skips_recompute(self, tmp_path, counted_sweep):
        configure_cache(enabled=True, root=tmp_path)
        config = ExperimentConfig.test(repetitions=2)
        first = api.run_point(config, ["OLIVE"])
        assert counted_sweep == [0, 1]
        second = api.run_point(config, ["OLIVE"])
        assert counted_sweep == [0, 1]  # no recomputation
        assert first == second

    def test_changed_point_recomputes(self, tmp_path, counted_sweep):
        configure_cache(enabled=True, root=tmp_path)
        config = ExperimentConfig.test(repetitions=1)
        api.run_point(config, ["OLIVE"])
        api.run_point(config.with_(utilization=1.4), ["OLIVE"])
        assert counted_sweep == [0, 0]  # both points computed once

    def test_disabled_cache_always_recomputes(self, counted_sweep):
        configure_cache(enabled=False)
        config = ExperimentConfig.test(repetitions=1)
        api.run_point(config, ["OLIVE"])
        api.run_point(config, ["OLIVE"])
        assert counted_sweep == [0, 0]


class TestCli:
    def test_parser_accepts_new_flags(self):
        args = build_parser().parse_args(
            ["fig6", "--jobs", "4", "--no-cache", "--cache-dir", "/tmp/x"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_all_is_a_target_and_covers_every_figure(self):
        args = build_parser().parse_args(["all"])
        assert args.figure == "all"
        assert set(RENDERERS) == set(FIGURES)

    def test_jobs_must_be_int(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--jobs", "many"])

    def test_negative_jobs_is_a_clean_parser_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig6", "--jobs", "-1"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_main_configures_runner_and_cache(self, tmp_path, capsys):
        # fig12 on a non-Iris topology exits early (code 2) after global
        # configuration — a cheap probe that the flags take effect.
        code = main(
            [
                "fig12",
                "--topology",
                "CittaStudi",
                "--scale",
                "test",
                "--jobs",
                "3",
                "--cache-dir",
                str(tmp_path / "cli-cache"),
            ]
        )
        assert code == 2
        assert get_default_runner().jobs == 3
        assert get_active_cache().root == tmp_path / "cli-cache"

    def test_main_no_cache_disables_cache(self, capsys):
        code = main(
            ["fig12", "--topology", "CittaStudi", "--scale", "test",
             "--no-cache"]
        )
        assert code == 2
        assert get_active_cache() is None


@pytest.mark.slow
class TestEndToEndParallelism:
    """Full-pipeline determinism: a real sweep, serial vs process pool."""

    def test_sweep_identical_across_job_counts(self):
        config = ExperimentConfig.test(
            history_slots=80,
            online_slots=16,
            measure_start=2,
            measure_stop=14,
            repetitions=2,
        )
        serial = api.run_point(config, ["OLIVE"], ParallelRunner(jobs=1))
        pooled = api.run_point(config, ["OLIVE"], ParallelRunner(jobs=2))
        wallclock = (":runtime", ":slots_per_sec", ":requests_per_sec")
        for metric in serial:
            if metric.endswith(wallclock):
                continue  # wall-clock is inherently nondeterministic
            assert serial[metric] == pooled[metric], metric
