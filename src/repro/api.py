"""Fluent experiment facade — the one public entry point for experiments.

One expression assembles scenarios, fans seeded repetitions out over a
process pool, consults the on-disk result cache, and returns a tidy
result object::

    from repro.api import Experiment
    from repro.experiments.config import PAPER_UTILIZATIONS, ExperimentConfig

    result = (
        Experiment(ExperimentConfig.bench())
        .algorithms("OLIVE", "QUICKG")
        .sweep("utilization", PAPER_UTILIZATIONS)
        .perturb(shift_plan_ingress=True)
        .run(jobs=8)
    )
    print(result.table("rejection_rate"))
    rows = result.to_rows()          # tidy dicts, one per (point, alg, metric)
    result.to_csv("shifted.csv")

Every algorithm/topology/trace/app-mix name is resolved through
:mod:`repro.registry`, so components registered by third-party code work
here unchanged. Summaries are bit-identical for every job count and for
cached vs uncached runs: repetition *i* is fully determined by
``base_seed + i``, and the cache stores the aggregated
:class:`~repro.sim.runner.ConfidenceInterval` values keyed by the exact
parameter set (plus a fingerprint of the installed ``repro`` code).

The lower-level pieces (:func:`run_single`, :func:`summarize_run`,
:func:`run_point`) are public too — the figure drivers in
:mod:`repro.experiments.figures` are thin wrappers over this module.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import io
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.errors import SimulationError
from repro.experiments.cache import get_active_cache, result_key
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import (
    DEFAULT_METRICS,
    Scenario,
    algorithms_need_plan,
    build_scenario,
    make_algorithm,
)
from repro.registry import (
    algorithm_registry,
    app_mix_registry,
    efficiency_registry,
    event_profile_registry,
    topology_registry,
    trace_registry,
)
from repro.scenarios import profiles as _event_profiles  # noqa: F401 (registers presets)
from repro.scenarios.events import DISRUPTION_POLICIES, EventSchedule
from repro.sim.engine import SimulationResult, simulate
from repro.sim.metrics import (
    availability,
    balance_index,
    cost_breakdown,
    disruption_rate,
    mean_recovery_time,
    rejection_rate,
)
from repro.sim.runner import (
    ConfidenceInterval,
    ParallelRunner,
    get_default_runner,
)
from repro.sim.session import SimulationSession
from repro.utils.rng import child_rng, make_rng

#: The paper's default comparison set (FULLG joins in Fig. 9/10 only).
DEFAULT_ALGORITHMS = ("OLIVE", "QUICKG", "SLOTOFF")

#: Scenario-level perturbation knobs accepted by :meth:`Experiment.perturb`.
#: Most parameterize :func:`~repro.experiments.scenario.build_scenario`
#: without changing the online workload; ``events``/``event_policy``
#: instead attach a dynamic-event schedule to the simulation itself.
PERTURBATION_KEYS = frozenset(
    {
        "plan_utilization",
        "shift_plan_ingress",
        "num_quantiles",
        "with_plan",
        "events",
        "event_policy",
    }
)

_CONFIG_FIELDS = frozenset(f.name for f in fields(ExperimentConfig))


# -- the sweep-point engine ---------------------------------------------------


def resolve_events(
    events, scenario: Scenario, seed: int, policy: str | None = None
) -> EventSchedule | None:
    """Materialize an event schedule for one repetition.

    ``events`` is a registered profile name (resolved with a seed-derived
    rng, so repetition *i* gets its own deterministic schedule), an
    :class:`EventSchedule` instance, or None. ``policy`` overrides the
    schedule's stranded-request policy.
    """
    if events is None:
        return None
    if isinstance(events, str):
        schedule = event_profile_registry.create(
            events, scenario, child_rng(make_rng(seed), "events", events)
        )
    elif isinstance(events, EventSchedule):
        schedule = events
    else:
        raise SimulationError(
            "events must be a registered profile name or an EventSchedule "
            f"(got {type(events).__name__}); known profiles: "
            f"{list(event_profile_registry.names())}"
        )
    if policy is not None and policy != schedule.policy:
        schedule = schedule.with_policy(policy)
    schedule.validate(scenario.substrate, num_apps=len(scenario.apps))
    return schedule


def run_single(
    config: ExperimentConfig,
    seed: int,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    events=None,
    event_policy: str | None = None,
    **scenario_kwargs,
) -> tuple[Scenario, dict[str, SimulationResult]]:
    """Run one repetition of one configuration for several algorithms.

    The plan is computed iff any requested algorithm declares
    ``needs_plan`` in the registry (override with an explicit
    ``with_plan=...``). All algorithms see the *same* trace and plan —
    the paper's methodology — and, when ``events`` names a registered
    event profile (or is an :class:`EventSchedule`), the same dynamic
    event schedule.
    """
    scenario_kwargs.setdefault(
        "with_plan", algorithms_need_plan(algorithms)
    )
    scenario = build_scenario(config, seed, **scenario_kwargs)
    schedule = resolve_events(events, scenario, seed, event_policy)
    online = scenario.online_requests()
    results = {}
    for name in algorithms:
        algorithm = make_algorithm(name, scenario)
        results[name] = simulate(
            algorithm, online, config.online_slots, events=schedule
        )
    return scenario, results


def summarize_run(
    scenario: Scenario, results: dict[str, SimulationResult]
) -> dict[str, float]:
    """Flatten one repetition's results into ``alg:metric`` values."""
    window = scenario.config.measure_window
    metrics: dict[str, float] = {}
    for name, result in results.items():
        costs = cost_breakdown(
            result, scenario.substrate, scenario.apps, window
        )
        metrics[f"{name}:rejection_rate"] = rejection_rate(result, window)
        metrics[f"{name}:resource_cost"] = costs.resource
        metrics[f"{name}:rejection_cost"] = costs.rejection
        metrics[f"{name}:total_cost"] = costs.total
        metrics[f"{name}:runtime"] = result.runtime_seconds
        metrics[f"{name}:slots_per_sec"] = result.slots_per_second
        metrics[f"{name}:requests_per_sec"] = result.requests_per_second
        metrics[f"{name}:balance"] = balance_index(
            result, len(scenario.apps), window
        )
        metrics[f"{name}:disrupted_rate"] = disruption_rate(result, window)
        metrics[f"{name}:availability"] = availability(result, window)
        metrics[f"{name}:recovery_time"] = mean_recovery_time(result)
    return metrics


@dataclass(frozen=True)
class _PointTask:
    """One repetition of one sweep point, picklable for the process pool."""

    config: ExperimentConfig
    algorithms: tuple[str, ...]
    scenario_kwargs: tuple[tuple[str, object], ...]

    def __call__(self, seed: int) -> dict[str, float]:
        scenario, results = run_single(
            self.config,
            seed,
            self.algorithms,
            **dict(self.scenario_kwargs),
        )
        return summarize_run(scenario, results)


#: Everything under this directory is covered by the cache's own
#: ``code_fingerprint`` (the whole ``repro`` package).
_REPRO_PACKAGE_ROOT = Path(__file__).resolve().parent


def _plugin_fingerprint(
    config: ExperimentConfig,
    algorithms: Sequence[str],
    events: str | None = None,
) -> str | None:
    """Hash third-party component code referenced by this sweep point.

    The result cache's ``code_fingerprint`` covers only the ``repro``
    package, so a registered plugin (algorithm, topology, trace, mix,
    efficiency model, event profile) could change without invalidating
    cached results. This hashes the source file of every out-of-package
    factory the point uses; ``None`` when all components are built-ins,
    keeping built-in cache keys unchanged.
    """
    entries = [algorithm_registry.get(name) for name in algorithms]
    entries += [
        # Sized families are spelled "family:<nodes>"; the registry entry
        # (and hence the plugin source) is keyed by the base name.
        topology_registry.get(config.topology.partition(":")[0]),
        trace_registry.get(config.trace_kind),
        app_mix_registry.get(config.app_mix),
        efficiency_registry.get(
            config.efficiency or ("gpu" if config.gpu_scenario else "uniform")
        ),
    ]
    if events is not None:
        entries.append(event_profile_registry.get(events))
    digest = hashlib.sha256()
    external = False
    for entry in entries:
        factory = entry.factory
        try:
            source = inspect.getsourcefile(factory)
        except TypeError:
            source = None
        if source is not None and Path(source).resolve().is_relative_to(
            _REPRO_PACKAGE_ROOT
        ):
            continue
        external = True
        digest.update(entry.name.encode())
        if source is not None:
            try:
                digest.update(Path(source).read_bytes())
                continue
            except OSError:
                pass
        # No readable source (REPL/exec-defined): fall back to the
        # qualified name — stable across processes, unlike repr().
        qualname = getattr(factory, "__qualname__", type(factory).__name__)
        digest.update(f"{factory.__module__}.{qualname}".encode())
    return digest.hexdigest() if external else None


def run_point(
    config: ExperimentConfig,
    algorithms: Sequence[str],
    runner: ParallelRunner | None = None,
    use_cache: bool = True,
    **scenario_kwargs,
) -> dict[str, ConfidenceInterval]:
    """Repeat one configuration and summarize with confidence intervals.

    Repetitions run through ``runner`` (the process-wide default when not
    given). When a result cache is active (and ``use_cache``) the whole
    sweep point is looked up first, so re-running a sweep recomputes only
    changed points.
    """
    cache = get_active_cache() if use_cache else None
    if isinstance(scenario_kwargs.get("events"), EventSchedule):
        # Ad-hoc schedule objects have no stable serialized identity; only
        # registered profile names participate in result caching.
        cache = None
    key = None
    if cache is not None:
        extra = dict(scenario_kwargs)
        events = scenario_kwargs.get("events")
        plugin_code = _plugin_fingerprint(
            config, algorithms, events if isinstance(events, str) else None
        )
        if plugin_code is not None:
            extra["plugin_code"] = plugin_code
        key = result_key(config, "sweep", algorithms, extra=extra)
        cached = cache.get(key)
        if cached is not None:
            return cached
    task = _PointTask(
        config,
        tuple(algorithms),
        tuple(sorted(scenario_kwargs.items())),
    )
    if runner is None:
        runner = get_default_runner()
    summary = runner.repeat(task, config.repetitions, config.base_seed)
    if cache is not None and key is not None:
        cache.put(key, summary)
    return summary


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point: its parameters and the per-``alg:metric`` summary."""

    params: Mapping[str, object]
    config: ExperimentConfig
    summary: Mapping[str, ConfidenceInterval]

    def value(self, algorithm: str, metric: str) -> ConfidenceInterval:
        """The summarized interval for one ``algorithm:metric`` pair."""
        key = f"{algorithm}:{metric}"
        if key not in self.summary:
            raise SimulationError(
                f"no summary for {key!r}; available: {sorted(self.summary)}"
            )
        return self.summary[key]


class SweepResult:
    """Structured result of :meth:`Experiment.run` — tidy rows on demand."""

    def __init__(
        self,
        points: Sequence[SweepPoint],
        algorithms: tuple[str, ...],
        sweep_params: tuple[str, ...],
    ) -> None:
        self.points = list(points)
        self.algorithms = algorithms
        self.sweep_params = sweep_params

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> SweepPoint:
        return self.points[index]

    @property
    def summary(self) -> Mapping[str, ConfidenceInterval]:
        """The single point's summary (sweep-less experiments)."""
        if len(self.points) != 1:
            raise SimulationError(
                f"experiment has {len(self.points)} sweep points; "
                "iterate or use keyed()/to_rows() instead of .summary"
            )
        return self.points[0].summary

    def keyed(self, param: str) -> dict:
        """``{param value -> summary}`` over the points (figure-driver shape)."""
        if param not in self.sweep_params:
            raise SimulationError(
                f"{param!r} was not swept; swept: {list(self.sweep_params)}"
            )
        if len(self.sweep_params) > 1:
            # A flat {value -> summary} dict would keep only the last
            # point per value, silently dropping the other axes' data.
            raise SimulationError(
                f"keyed({param!r}) is ambiguous with multiple sweep axes "
                f"{list(self.sweep_params)}; use to_rows() or iterate the "
                "points instead"
            )
        return {point.params[param]: dict(point.summary) for point in self.points}

    def metrics(self) -> tuple[str, ...]:
        """Metric names present across all points (without algorithm prefix)."""
        names: set[str] = set()
        for point in self.points:
            names.update(key.split(":", 1)[1] for key in point.summary)
        return tuple(sorted(names))

    def to_rows(self) -> list[dict]:
        """Tidy rows: one per (sweep point, algorithm, metric)."""
        rows = []
        for point in self.points:
            for key in sorted(point.summary):
                algorithm, metric = key.split(":", 1)
                interval = point.summary[key]
                rows.append(
                    {
                        **dict(point.params),
                        "algorithm": algorithm,
                        "metric": metric,
                        "mean": interval.mean,
                        "half_width": interval.half_width,
                        "low": interval.low,
                        "high": interval.high,
                        "count": interval.count,
                        "confidence": interval.confidence,
                    }
                )
        return rows

    def to_csv(self, path=None) -> str:
        """Render :meth:`to_rows` as CSV; optionally write it to ``path``."""
        rows = self.to_rows()
        columns = [
            *self.sweep_params,
            "algorithm", "metric", "mean", "half_width", "low", "high",
            "count", "confidence",
        ]
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def table(self, metric: str = "rejection_rate") -> str:
        """A fixed-width text table of one metric: points × algorithms."""
        header = [*self.sweep_params, *self.algorithms]
        body: list[list[str]] = []
        for point in self.points:
            cells = [str(point.params[p]) for p in self.sweep_params]
            for algorithm in self.algorithms:
                interval = point.summary.get(f"{algorithm}:{metric}")
                cells.append(
                    "-" if interval is None
                    else f"{interval.mean:.4g} ±{interval.half_width:.2g}"
                )
            body.append(cells)
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body
            else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in [header, *body]
        ]
        return "\n".join(lines)


# -- the facade ---------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """Fluent, immutable experiment builder.

    Each chained call returns a *new* ``Experiment``, so partial setups
    can be shared and forked::

        base = Experiment(config).algorithms("OLIVE", "QUICKG")
        shifted = base.perturb(shift_plan_ingress=True)
        result = shifted.sweep("utilization", (0.6, 1.0, 1.4)).run(jobs=4)
    """

    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    _algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    _sweeps: tuple[tuple[str, tuple], ...] = ()
    _perturbations: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.config, ExperimentConfig):
            raise SimulationError(
                "Experiment expects an ExperimentConfig "
                f"(got {type(self.config).__name__}); build one with "
                "ExperimentConfig.test()/bench()/paper()"
            )

    # -- fluent setup ---------------------------------------------------------

    def with_config(self, **overrides) -> "Experiment":
        """Override :class:`ExperimentConfig` fields."""
        return dataclasses.replace(self, config=self.config.with_(**overrides))

    def algorithms(self, *names: str) -> "Experiment":
        """Select the algorithms to compare (validated against the registry)."""
        if not names:
            raise SimulationError("algorithms() needs at least one name")
        for name in names:
            algorithm_registry.get(name)  # fail fast on unknown names
        return dataclasses.replace(self, _algorithms=tuple(names))

    def sweep(self, param: str, values: Sequence) -> "Experiment":
        """Add a sweep axis; multiple axes form their cartesian product.

        ``param`` is an :class:`ExperimentConfig` field (``utilization``,
        ``app_mix``, ``arrivals_per_node``, ...) or a scenario
        perturbation (``plan_utilization``, ``shift_plan_ingress``).
        Config fields win when a name is both (``num_quantiles``).
        """
        values = tuple(values)
        if not values:
            raise SimulationError(f"sweep({param!r}) got no values")
        if param not in _CONFIG_FIELDS and param not in PERTURBATION_KEYS:
            raise SimulationError(
                f"unknown sweep parameter {param!r}; config fields: "
                f"{sorted(_CONFIG_FIELDS)}; perturbations: "
                f"{sorted(PERTURBATION_KEYS)}"
            )
        if any(param == existing for existing, _ in self._sweeps):
            raise SimulationError(f"{param!r} is already swept")
        return dataclasses.replace(
            self, _sweeps=(*self._sweeps, (param, values))
        )

    def perturb(self, **kwargs) -> "Experiment":
        """Apply scenario perturbations to every point (Figs. 11/13/14)."""
        unknown = sorted(set(kwargs) - PERTURBATION_KEYS)
        if unknown:
            raise SimulationError(
                f"unknown perturbation(s) {unknown}; known: "
                f"{sorted(PERTURBATION_KEYS)}"
            )
        merged = {**dict(self._perturbations), **kwargs}
        return dataclasses.replace(
            self, _perturbations=tuple(sorted(merged.items()))
        )

    def events(
        self, profile: "str | EventSchedule", policy: str | None = None
    ) -> "Experiment":
        """Attach a dynamic-event schedule to every point (chaos scenarios).

        ``profile`` is a registered event-profile name (resolved per
        repetition with a seed-derived rng) or a concrete
        :class:`~repro.scenarios.events.EventSchedule`; ``policy``
        overrides how stranded requests are handled (``"preempt"`` or
        ``"reroute"``). Profiles can also be swept:
        ``.sweep("events", ("link-flap", "blackout"))``.

        Only registered profile *names* participate in result caching —
        an ad-hoc ``EventSchedule`` object has no stable serialized
        identity, so points carrying one always recompute.
        """
        if isinstance(profile, str):
            event_profile_registry.get(profile)  # fail fast on unknown names
        elif not isinstance(profile, EventSchedule):
            raise SimulationError(
                "events() expects a registered profile name or an "
                f"EventSchedule (got {type(profile).__name__})"
            )
        if policy is not None and policy not in DISRUPTION_POLICIES:
            raise SimulationError(
                f"unknown disruption policy {policy!r}; known: "
                f"{list(DISRUPTION_POLICIES)}"
            )
        kwargs: dict[str, object] = {"events": profile}
        if policy is not None:
            kwargs["event_policy"] = policy
        return self.perturb(**kwargs)

    def repetitions(self, count: int) -> "Experiment":
        """Set the repetition count (seeds ``base_seed .. base_seed+count-1``)."""
        return self.with_config(repetitions=count)

    def seed(self, base_seed: int) -> "Experiment":
        """Set the base seed of the repetition ladder."""
        return self.with_config(base_seed=base_seed)

    # -- streaming ------------------------------------------------------------

    def _streaming_scenario(self, name: str, seed: int | None):
        """Resolve the scenario/event schedule for the configured point."""
        if self._sweeps:
            raise SimulationError(
                "stream()/serve() drive one configured point; this "
                f"experiment sweeps {[p for p, _ in self._sweeps]} — "
                "expand points() and build one session per point instead"
            )
        algorithm_registry.get(name)  # fail fast on unknown names
        kwargs = dict(self._perturbations)
        events = kwargs.pop("events", None)
        policy = kwargs.pop("event_policy", None)
        kwargs.setdefault("with_plan", algorithms_need_plan((name,)))
        seed = self.config.base_seed if seed is None else seed
        scenario = build_scenario(self.config, seed, **kwargs)
        schedule = resolve_events(events, scenario, seed, policy)
        return scenario, schedule

    def _streaming_point(self, algorithm: str | None, seed: int | None):
        """Resolve the single configured point for stream()/serve()."""
        name = algorithm if algorithm is not None else self._algorithms[0]
        scenario, schedule = self._streaming_scenario(name, seed)
        return scenario, make_algorithm(name, scenario), schedule

    def stream(
        self, algorithm: str | None = None, seed: int | None = None
    ) -> SimulationSession:
        """Open a streaming session over this experiment's online trace.

        Builds the configured scenario (plan included when the algorithm
        needs one), pre-submits its online request stream, and returns a
        :class:`~repro.sim.session.SimulationSession` ready to be
        stepped, checkpointed, or fed ad-hoc ``submit()`` arrivals.
        Running it to the horizon is bit-identical to the batch
        :meth:`run` engine for the same (algorithm, seed) point.

        ``algorithm`` defaults to the first selected algorithm; ``seed``
        to the config's base seed (repetition 0).
        """
        scenario, algo, schedule = self._streaming_point(algorithm, seed)
        return SimulationSession(
            algo,
            scenario.online_requests(),
            self.config.online_slots,
            events=schedule,
        )

    def serve(
        self,
        algorithm: str | None = None,
        seed: int | None = None,
        admission="always",
        admission_params: dict | None = None,
        max_pending: int | None = None,
        metrics_window: int = 512,
        preload_trace: bool = False,
        shards: int | None = None,
        shard_policy: str = "kbalanced",
        shard_workers: str = "process",
        checkpoint_every: int = 1,
    ) -> "EmbedderService":
        """Stand up an :class:`~repro.serve.EmbedderService` for this point.

        The service owns a fresh session over the configured scenario —
        empty by default (live traffic arrives through ``offer()`` /
        ``schedule()``); ``preload_trace=True`` pre-submits the
        scenario's online trace so offers ride on top of the replayed
        workload. ``admission``/``admission_params`` name a registered
        admission policy; ``max_pending`` bounds the scheduled-arrival
        queue (backpressure). The built scenario is attached as
        ``service.scenario`` for traffic generators.

        ``shards=K`` stands up a
        :class:`~repro.shard.ShardedEmbedderService` instead — the
        substrate partitioned into K regions by the registered
        ``shard_policy``, one worker session per shard
        (``shard_workers``: ``"process"`` or ``"inline"``), checkpointed
        every ``checkpoint_every`` slots. The sharded service drives
        live offers only: ``preload_trace``, ``max_pending``, and
        attached event schedules are rejected.
        """
        from repro.serve.service import EmbedderService

        if shards is not None:
            from repro.shard import ShardedEmbedderService

            if preload_trace:
                raise SimulationError(
                    "serve(shards=...) drives live offers only; "
                    "preload_trace is not supported by the sharded tier"
                )
            if max_pending is not None:
                raise SimulationError(
                    "serve(shards=...) has no scheduled-arrival queue; "
                    "max_pending is not supported by the sharded tier"
                )
            if not isinstance(admission, str):
                raise SimulationError(
                    "serve(shards=...) ships admission to workers by "
                    "registry name; pass a registered policy name"
                )
            name = algorithm if algorithm is not None else self._algorithms[0]
            scenario, schedule = self._streaming_scenario(name, seed)
            if schedule is not None:
                raise SimulationError(
                    "event schedules are not supported by the sharded "
                    "service; drop .events() or serve without shards"
                )
            return ShardedEmbedderService(
                scenario,
                name,
                shards,
                shard_policy=shard_policy,
                workers=shard_workers,
                admission=admission,
                admission_params=admission_params,
                metrics_window=metrics_window,
                checkpoint_every=checkpoint_every,
            )

        scenario, algo, schedule = self._streaming_point(algorithm, seed)
        session = SimulationSession(
            algo,
            scenario.online_requests() if preload_trace else (),
            self.config.online_slots,
            events=schedule,
        )
        return EmbedderService(
            session,
            admission=admission,
            admission_params=admission_params,
            max_pending=max_pending,
            metrics_window=metrics_window,
            scenario=scenario,
        )

    # -- execution ------------------------------------------------------------

    def points(self) -> list[tuple[dict, ExperimentConfig, dict]]:
        """Expand the sweep axes: ``(params, config, scenario_kwargs)``."""
        expanded: list[tuple[dict, ExperimentConfig, dict]] = [
            ({}, self.config, dict(self._perturbations))
        ]
        for param, values in self._sweeps:
            next_points = []
            for params, config, scenario_kwargs in expanded:
                for value in values:
                    new_params = {**params, param: value}
                    if param in _CONFIG_FIELDS:
                        next_points.append(
                            (new_params, config.with_(**{param: value}),
                             dict(scenario_kwargs))
                        )
                    else:
                        next_points.append(
                            (new_params, config,
                             {**scenario_kwargs, param: value})
                        )
            expanded = next_points
        return expanded

    def run(
        self,
        jobs: int | None = None,
        runner: ParallelRunner | None = None,
        cache: bool | None = None,
    ) -> SweepResult:
        """Execute every sweep point and return a :class:`SweepResult`.

        ``jobs`` fans each point's seeded repetitions over a process pool
        (``0`` = one per CPU); with neither ``jobs`` nor ``runner`` the
        process-wide default runner is used. ``cache=False`` bypasses an
        active result cache for this run; ``cache=None`` (default)
        consults whatever cache :func:`repro.experiments.cache.configure_cache`
        enabled.
        """
        if runner is None and jobs is not None:
            runner = ParallelRunner.from_jobs(jobs)
        use_cache = cache is not False
        points = []
        for params, config, scenario_kwargs in self.points():
            summary = run_point(
                config,
                self._algorithms,
                runner=runner,
                use_cache=use_cache,
                **scenario_kwargs,
            )
            points.append(
                SweepPoint(params=params, config=config, summary=summary)
            )
        return SweepResult(
            points,
            algorithms=self._algorithms,
            sweep_params=tuple(param for param, _ in self._sweeps),
        )


__all__ = [
    "DEFAULT_ALGORITHMS",
    "DEFAULT_METRICS",
    "PERTURBATION_KEYS",
    "Experiment",
    "SweepPoint",
    "SweepResult",
    "resolve_events",
    "run_point",
    "run_single",
    "summarize_run",
]
