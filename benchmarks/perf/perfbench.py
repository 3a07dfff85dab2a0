"""The layered serving benchmark: workloads, the drive loop, layer probes.

One closed-loop caller offers a scenario's own online trace to a live
service, slot by slot (slot ``t + 1`` is offered only after
``advance_to(t + 1)`` returned). After ``warm`` untimed slots, slots with
``t % 5 == 4`` are **single slots** (every request goes through
``offer()`` and is timed on its own) and all others are **bulk slots**
(one ``offer_many()`` per slot). :func:`run_end_to_end` produces the
end-to-end metrics; :func:`run_traced` replays the same trace at three
depths (service → session → algorithm) and attributes the wall time to
layers by subtracting the next depth down. ``run.py`` is the command
line over this module; README.md explains what each number is for.

The benchmark drives the system through its public API only and records
spans around its *own* calls — nothing under ``src/`` knows it exists.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# Measure this checkout's sources, never an installed copy of the
# package: two commits are compared by running each one's own tree.
# Where ``src/`` is absent the import below fails and the run exits
# non-zero without a result.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.api import Experiment, resolve_events
from repro.core.olive import Decision, OliveAlgorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import scale_config
from repro.registry import algorithm_registry
from repro.scenarios.events import capacity_invariant_gap
from repro.serve.service import EmbedderService
from repro.sim.session import SimulationSession

#: The contract: metric names and units are declared there, once.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: Measuring time of one run at full size on the 2-core reference box;
#: ``--seconds`` rescales slot counts relative to this.
RUN_SECONDS: int = BENCHMARK["run_seconds"]

#: name → unit. Every workload reports every end-to-end metric; a traced
#: run reports the per-layer metrics that exist on its workload.
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Every fifth slot is a single slot.
SINGLE_EVERY = 5

INVARIANT_TOLERANCE = 1e-6

#: Worker kind of the sharded workload. In-process: with K = 2 process
#: workers beside the caller on a 2-core box, OS scheduling alone moved
#: ``offer_p50_us`` 18 % and ``offers_per_s`` 12 % (interquartile) across
#: ten runs. The traced run still measures process workers, as
#: ``shard.process_over_inline``.
SHARD_WORKERS = "inline"


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One benchmark scenario; README.md records why each was chosen."""

    name: str
    topology: str
    algorithm: str
    utilization: float
    #: Online slots and untimed warm-up slots at ``RUN_SECONDS``.
    slots: int
    warm: int
    #: ``scale_config`` preset (single-chain mix, λ = 2) instead of the
    #: standard four-app mix at λ = 20.
    scale_preset: bool
    events: str | None = None
    shards: int | None = None
    #: Seed of the scenario (topology draw, applications, ingress
    #: popularity, history, plan); ``--seed`` only orders the offers.
    scenario_seed: int = 0
    #: Set-ups timed per end-to-end run; ``setup_s`` is their median.
    setup_reps: int = 3
    #: ``--check`` also replays the trace on the ``use_fast_greedy=False``
    #: reference engine.
    reference_check: bool = False

    def sized(self, scale: float) -> tuple[int, int]:
        """``(slots, warm)`` at ``scale`` × full size.

        Never fewer than ``warm + SINGLE_EVERY`` slots, so every run has
        both a single slot and bulk slots after the warm-up.
        """
        warm = max(1, round(self.warm * scale))
        return max(warm + SINGLE_EVERY, round(self.slots * scale)), warm

    def config(self, slots: int) -> ExperimentConfig:
        window = dict(online_slots=slots, measure_start=1, measure_stop=slots)
        if self.scale_preset:
            base = ExperimentConfig.bench(
                topology=self.topology, utilization=self.utilization
            )
            return scale_config(base).with_(**window)
        return ExperimentConfig.bench(
            topology=self.topology,
            utilization=self.utilization,
            arrivals_per_node=20.0,
            history_slots=300,
            **window,
        )

    def serve(self, slots: int) -> Any:
        """Stand the service up the way a user would: ``Experiment.serve``.

        A sharded service is asked for its metrics once, which returns
        when every forked worker has booted: a service that still blocks
        its first offer on worker start-up is not ready.
        """
        experiment = Experiment(self.config(slots)).algorithms(self.algorithm)
        if self.events is not None:
            experiment = experiment.events(self.events, policy="reroute")
        if self.shards is None:
            return experiment.serve(seed=self.scenario_seed)
        service = experiment.serve(
            seed=self.scenario_seed, shards=self.shards,
            shard_workers=SHARD_WORKERS, checkpoint_every=1,
        )
        service.metrics()
        return service

    def unsharded(self) -> "Workload":
        return dataclasses.replace(self, shards=None)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "small_planned", "CittaStudi", "OLIVE", 0.8,
            slots=800, warm=20, scale_preset=False, reference_check=True,
        ),
        Workload(
            "large_greedy", "tiered-x:400", "QUICKG", 1.0,
            slots=65, warm=10, scale_preset=True, setup_reps=7,
            scenario_seed=2,
        ),
        Workload(
            "mid_overload", "tiered-x:120", "OLIVE", 1.4,
            slots=650, warm=10, scale_preset=True, events="blackout",
        ),
        Workload(
            "large_sharded", "tiered-x:400", "QUICKG", 1.0,
            slots=20, warm=5, scale_preset=True, shards=2, setup_reps=7,
            scenario_seed=2,
        ),
    )
}

# -- the drive loop -----------------------------------------------------------


class ServiceDepth:
    """The service boundary (``EmbedderService`` or the sharded frontend)."""

    def __init__(self, service: Any, layer: str = "serve") -> None:
        self.bulk = service.offer_many
        self.single = service.offer
        self._advance_to = service.advance_to
        self.phase_names = (
            None, f"{layer}.offer_many_s", f"{layer}.offer_s",
            f"{layer}.advance_s",
        )

    def open(self, t: int) -> None:
        pass

    def close(self, t: int) -> None:
        self._advance_to(t + 1)


class SessionDepth:
    """A bare ``SimulationSession``: the service layer peeled off."""

    phase_names = (
        "sim.begin_slot_s", "sim.process_many_s", "sim.process_s",
        "sim.close_slot_s",
    )

    def __init__(self, session: SimulationSession) -> None:
        self.bulk = session.process_many
        self.single = session.process
        self._begin = session.begin_slot
        self._close = session.close_slot

    def open(self, t: int) -> None:
        self._begin()

    def close(self, t: int) -> None:
        self._close()


class AlgorithmDepth:
    """The algorithm alone, fed by the benchmark's own departure calendar.

    Departures are registered for every request (rejected ones too —
    ``release`` tolerates unknown ids) and released in ``(arrival, id)``
    order, the order of the session's ``insort`` calendar.
    """

    phase_names = ("core.release_s", "core.process_s", "core.process_s", None)

    def __init__(self, algorithm: Any, by_slot: list[list]) -> None:
        self.bulk = algorithm.process_many
        self.single = algorithm.process
        self._release = algorithm.release
        self._departures: dict[int, list] = {}
        for run in by_slot:
            for request in sorted(run):
                self._departures.setdefault(request.departure, []).append(
                    request
                )

    def open(self, t: int) -> None:
        release = self._release
        for request in self._departures.get(t, ()):
            release(request)

    def close(self, t: int) -> None:
        pass


@dataclass
class DriveResult:
    """What one pass over the trace measured (timed slots only, unless
    noted)."""

    #: One entry per offer of the whole run, warm-up included, in offer
    #: order; ``None`` where the offer raised.
    decisions: list
    #: Per-``offer()`` seconds over all single-slot offers, and whether
    #: each was accepted (a failed offer counts as not accepted).
    latencies: list[float]
    latency_accepted: list[bool]
    bulk_offers: int
    bulk_wall: float
    single_offers: int
    single_wall: float
    #: Seconds inside the depth's own calls: open, bulk, single, close.
    phases: tuple[float, float, float, float]
    attempted: int
    failed: int
    errors: list[str]
    #: Per-slot span records (traced passes only).
    spans: list[dict]

    @property
    def wall(self) -> float:
        return self.bulk_wall + self.single_wall

    @property
    def inside(self) -> float:
        return sum(self.phases)

    @property
    def rejection_rate(self) -> float:
        decided = [d for d in self.decisions if d is not None]
        return sum(1 for d in decided if not d.accepted) / len(decided)


def drive(
    depth: Any,
    by_slot: list[list],
    warm: int,
    mode: str = "interleaved",
    trace: bool = False,
    stop: int | None = None,
    after_slot: Callable[[int], None] | None = None,
) -> DriveResult:
    """Offer ``by_slot`` to ``depth`` slot by slot, closed loop.

    ``mode`` is ``"interleaved"`` (the benchmark's drive), or
    ``"bulk"``/``"single"`` (every slot one kind — ``--check`` compares
    the three). ``stop`` ends the pass early (prefix replays).
    ``after_slot(t + 1)`` runs at each slot boundary, outside every
    timed interval (the traced run hangs its checkpoint probes there).
    """
    clock = time.perf_counter
    open_slot, close_slot = depth.open, depth.close
    bulk, single = depth.bulk, depth.single
    decisions: list = []
    latencies: list[float] = []
    latency_accepted: list[bool] = []
    errors: list[str] = []
    spans: list[dict] = []
    phases = [0.0, 0.0, 0.0, 0.0]
    bulk_offers = single_offers = attempted = 0
    bulk_wall = single_wall = 0.0
    for t in range(len(by_slot) if stop is None else stop):
        run = by_slot[t]
        is_single = mode == "single" or (
            mode == "interleaved" and t % SINGLE_EVERY == SINGLE_EVERY - 1
        )
        attempted += len(run)
        slot_latencies: list[float] = []
        t0 = clock()
        open_slot(t)
        t1 = clock()
        if is_single:
            for request in run:
                a = clock()
                try:
                    decision = single(request)
                except Exception:
                    decision = None
                    errors.append(traceback.format_exc(limit=4))
                slot_latencies.append(clock() - a)
                decisions.append(decision)
            inner = sum(slot_latencies)
        elif run:
            a = clock()
            try:
                decisions.extend(bulk(run))
            except Exception:
                decisions.extend([None] * len(run))
                errors.append(traceback.format_exc(limit=4))
            inner = clock() - a
        else:
            inner = 0.0
        t2 = clock()
        close_slot(t)
        t3 = clock()
        if after_slot is not None:
            after_slot(t + 1)
        if t < warm:
            continue
        if is_single:
            single_offers += len(run)
            single_wall += t3 - t0
            latencies.extend(slot_latencies)
            latency_accepted.extend(
                bool(getattr(d, "accepted", False))
                for d in decisions[len(decisions) - len(run):]
            )
            phases[2] += inner
        else:
            bulk_offers += len(run)
            bulk_wall += t3 - t0
            phases[1] += inner
        phases[0] += t1 - t0
        phases[3] += t3 - t2
        if trace:
            spans.append(
                {
                    "slot": t, "kind": "single" if is_single else "bulk",
                    "offers": len(run), "start": t0, "open": t1 - t0,
                    "inner": inner, "close": t3 - t2, "end": t3,
                }
            )
    failed = sum(1 for d in decisions if not isinstance(d, Decision))
    return DriveResult(
        decisions=[d if isinstance(d, Decision) else None for d in decisions],
        latencies=latencies,
        latency_accepted=latency_accepted,
        bulk_offers=bulk_offers,
        bulk_wall=bulk_wall,
        single_offers=single_offers,
        single_wall=single_wall,
        phases=(phases[0], phases[1], phases[2], phases[3]),
        attempted=attempted,
        failed=failed,
        errors=errors,
        spans=spans,
    )


def offer_trace(scenario: Any, slots: int, seed: int) -> list[list]:
    """The scenario's online trace as one run of offers per slot.

    ``seed`` shuffles the offer order *within* each slot — which caller
    of a slot reaches the service first. The scenario itself (topology,
    applications, ingress popularity, history, plan) is pinned by the
    workload's scenario seed: it is the system under test, and across
    scenario seeds the metrics differ severalfold (``setup_s`` 2–10 s on
    ``mid_overload``), which no run-to-run bound could hold.
    """
    by_slot: list[list] = [[] for _ in range(slots)]
    for request in scenario.online_requests():
        by_slot[request.arrival].append(request)
    rng = random.Random(seed)
    for run in by_slot:
        rng.shuffle(run)
    return by_slot


def decision_digest(decisions: list) -> str:
    """sha256 over what each offer decided, in offer order."""
    digest = hashlib.sha256()
    pack = struct.Struct("<q4?d").pack
    for d in decisions:
        if d is None:
            digest.update(b"failed")
        else:
            digest.update(
                pack(
                    d.request.id, d.accepted, d.planned, d.borrowed,
                    d.via_greedy, d.cost_per_slot,
                )
            )
    return digest.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def peak_rss_mb() -> float:
    """High-water RSS of this process, plus the largest reaped child
    (process shard workers; nothing when there were none).

    Own peak from ``VmHWM``, not ``ru_maxrss``: Linux carries the
    launching process's peak across fork and exec into ``ru_maxrss``, so
    a run started by a large parent (a set's ``--check``) would report
    the parent's memory.
    """
    with open("/proc/self/status") as status:
        peak = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
    peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def close_service(service: Any) -> None:
    """Stop and reap a sharded service's workers (no-op unsharded)."""
    close = getattr(service, "close", None)
    if close is not None:
        close()


# -- building the other depths from a scenario --------------------------------


def make_session(
    workload: Workload, scenario: Any, slots: int, algorithm: Any = None
) -> SimulationSession:
    """A fresh empty session over ``scenario`` (events re-resolved)."""
    if algorithm is None:
        algorithm = algorithm_registry.create(workload.algorithm, scenario)
    schedule = resolve_events(
        workload.events, scenario, scenario.seed, "reroute"
    )
    return SimulationSession(algorithm, (), slots, events=schedule)


def make_service(
    workload: Workload, scenario: Any, slots: int,
    workers: str = SHARD_WORKERS, checkpoint_every: int = 1,
    algorithm: Any = None,
) -> Any:
    """A second service over an already-built scenario.

    Skips the plan LP the first :meth:`Workload.serve` already paid for;
    otherwise the same constructors ``Experiment.serve`` calls.
    """
    if workload.shards is not None:
        from repro.shard import ShardedEmbedderService

        service = ShardedEmbedderService(
            scenario, workload.algorithm, workload.shards, workers=workers,
            checkpoint_every=checkpoint_every,
        )
        service.metrics()  # returns once every worker has booted
        return service
    session = make_session(workload, scenario, slots, algorithm)
    return EmbedderService(session, scenario=scenario)


# -- one end-to-end run -------------------------------------------------------


def replay_prefix(
    workload: Workload, scenario: Any, by_slot: list[list], slots: int,
    warm: int,
) -> tuple[str, int]:
    """Digest of the warm-up prefix decided on another path.

    Unsharded: one ``process()`` at a time on a bare session, so the
    batched service path is checked against the scalar one. Sharded:
    two slots on process workers. A prefix's decisions do not depend on
    what is offered after it, so they must equal the live run's.
    """
    if workload.shards is not None:
        service = make_service(
            workload, scenario, slots, workers="process", checkpoint_every=0
        )
        try:
            replay = drive(
                ServiceDepth(service), by_slot, warm, stop=min(warm, 2)
            )
        finally:
            close_service(service)
    else:
        session = make_session(workload, scenario, slots)
        replay = drive(
            SessionDepth(session), by_slot, warm, mode="single", stop=warm
        )
    return decision_digest(replay.decisions), len(replay.decisions)


def timed_setup(workload: Workload, slots: int) -> tuple[Any, float]:
    """Stand the service up once; seconds from a collected heap to ready.

    The collector stays on (users run with it), but where its full
    passes fall depends on what the process already holds: collecting
    first makes every set-up of a run start from the same state
    (without it, repeated set-ups of one workload read 1.7–4.0 s).
    """
    gc.collect()
    start = time.perf_counter()
    service = workload.serve(slots)
    return service, time.perf_counter() - start


def run_end_to_end(
    workload: Workload, seed: int, scale: float = 1.0,
    setup_reps: int | None = None,
) -> dict:
    """One untraced run: the end-to-end metrics plus failure counts."""
    slots, warm = workload.sized(scale)
    sharded = workload.shards is not None

    service, first_setup = timed_setup(workload, slots)
    try:
        scenario = service.scenario
        by_slot = offer_trace(scenario, slots, seed)
        result = drive(ServiceDepth(service), by_slot, warm)
        gap = 0.0 if sharded else capacity_invariant_gap(service.algorithm)
    finally:
        close_service(service)
    # Read before the replay and the extra set-ups below, so the peak is
    # that of one set-up and one run — what a user's process would hold.
    rss = peak_rss_mb()

    prefix_digest, prefix_len = replay_prefix(
        workload, scenario, by_slot, slots, warm
    )
    checks = {
        "every_offer_decided": result.failed == 0
        and len(result.decisions) == result.attempted,
        "capacity_invariant": gap <= INVARIANT_TOLERANCE,
        "prefix_replay": prefix_digest
        == decision_digest(result.decisions[:prefix_len]),
    }
    latencies = sorted(result.latencies)
    values = {
        "offers_per_s": result.bulk_offers / result.bulk_wall,
        "offer_p50_us": percentile(latencies, 0.50) * 1e6,
        # Without the slowest 1 %: zero to three ~100 ms collector pauses
        # land on single offers in a run, and alone move the full mean 19 %.
        "offer_mean99_us": statistics.fmean(
            latencies[: max(1, int(0.99 * len(latencies)))]
        ) * 1e6,
        "rejection_rate": result.rejection_rate,
        "peak_rss_mb": rss,
    }
    out = {
        "workload": workload.name,
        "seed": seed,
        "scenario_seed": workload.scenario_seed,
        "slots": slots,
        "warm": warm,
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors[:3],
        "digest": decision_digest(result.decisions),
        "latency_samples": len(latencies),
        "bulk_offers": result.bulk_offers,
        "measured_wall_s": result.wall,
    }

    # The remaining set-ups run with the first one's trace and decisions
    # released, in a heap like the one the first started from.
    del service, scenario, by_slot, result, latencies
    setups = [first_setup]
    for _ in range((setup_reps or workload.setup_reps) - 1):
        extra, seconds = timed_setup(workload, slots)
        close_service(extra)
        del extra
        setups.append(seconds)
    values["setup_s"] = statistics.median(setups)
    out["setup_samples_s"] = setups
    out["metrics"] = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return out


# -- layer probes -------------------------------------------------------------

#: Public functions the traced run calls itself, by metric group. A
#: target that no longer resolves puts its metrics under ``skipped``.
PROBE_TARGETS: dict[str, str] = {
    "make_topology": "repro.substrate.topologies:make_topology",
    "substrate_index": "repro.substrate.network:substrate_index",
    "app_mix": "repro.registry:app_mix_registry.create",
    "efficiency": "repro.registry:efficiency_registry.create",
    "demand_mean": "repro.workload.trace:demand_mean_for_utilization",
    "trace_config": "repro.workload.trace:TraceConfig",
    "trace": "repro.registry:trace_registry.create",
    "aggregate": "repro.stats.aggregate:build_aggregate_demand",
    "plan_config": "repro.plan.formulation:PlanVNEConfig",
    "build_plan_vne": "repro.plan.formulation:build_plan_vne",
    "solve_lp": "repro.lp.solver:solve_lp",
    "compute_plan": "repro.plan.api:compute_plan",
    "greedy_embed": "repro.core:greedy_embed",
    "make_rng": "repro.utils.rng:make_rng",
    "child_rng": "repro.utils.rng:child_rng",
}


class ProbeMissing(Exception):
    """A probe's public function no longer exists."""


def lookup(path: str) -> Any:
    """Resolve ``"package.module:attr.attr"``; raise ProbeMissing if gone."""
    module_name, _, attrs = path.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError as error:
        raise ProbeMissing(f"{path}: {error}") from error
    for attr in attrs.split("."):
        if not hasattr(target, attr):
            raise ProbeMissing(f"{path}: no attribute {attr!r}")
        target = getattr(target, attr)
    return target


@dataclass
class LayerReport:
    """Per-layer metrics of one traced run, and what could not be taken."""

    metrics: dict[str, dict] = field(default_factory=dict)
    #: metric name → why it is absent (missing function, failed probe).
    skipped: dict[str, str] = field(default_factory=dict)
    #: Metrics that do not exist on this workload by design.
    not_applicable: list[str] = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = {"value": value, "unit": PER_LAYER[name]}

    def guard(self, names: tuple[str, ...], probe: Callable[[], None]) -> None:
        """Run ``probe``; on any failure list ``names`` under skipped.

        The traced run is a boundary that must keep going: a probe broken
        by a refactor costs its own metrics, never the run.
        """
        try:
            probe()
        except ProbeMissing as error:
            reason = str(error)
        except Exception as error:
            reason = f"{type(error).__name__}: {error}"
        else:
            return
        for name in names:
            if name not in self.metrics:
                self.skipped[name] = reason


def timed(function: Callable, *args: Any, **kwargs: Any) -> tuple[Any, float]:
    start = time.perf_counter()
    value = function(*args, **kwargs)
    return value, time.perf_counter() - start


def probe_setup_layers(
    report: LayerReport, workload: Workload, slots: int,
    targets: dict[str, str] = PROBE_TARGETS,
) -> None:
    """Time the set-up layers one public function at a time.

    Mirrors ``build_scenario`` step for step (same rng children), but
    nothing it builds is used for driving: the live run's service comes
    from ``Experiment.serve``.
    """
    config = workload.config(slots)
    state: dict[str, Any] = {}

    def substrate() -> None:
        substrate, build = timed(lookup(targets["make_topology"]), config.topology)
        _, index = timed(lookup(targets["substrate_index"]), substrate)
        state["substrate"] = substrate
        report.put("substrate.build_s", build + index)
        report.put("substrate.nodes", len(substrate.nodes))
        report.put("substrate.links", len(substrate.links))

    def trace() -> None:
        substrate = state["substrate"]
        make_rng = lookup(targets["make_rng"])
        child_rng = lookup(targets["child_rng"])
        rng = state["rng"] = make_rng(workload.scenario_seed)
        state["child_rng"] = child_rng
        apps = lookup(targets["app_mix"])(config.app_mix, child_rng(rng, "apps"))
        demand_mean = lookup(targets["demand_mean"])(
            config.utilization, substrate, apps,
            arrivals_per_node=config.arrivals_per_node,
            duration_mean=config.duration_mean,
        )
        trace_config = lookup(targets["trace_config"])(
            history_slots=config.history_slots,
            online_slots=config.online_slots,
            arrivals_per_node=config.arrivals_per_node,
            demand_mean=demand_mean,
            demand_std=config.demand_cv * demand_mean,
            duration_mean=config.duration_mean,
        )
        trace, seconds = timed(
            lookup(targets["trace"]), config.trace_kind, substrate, apps,
            trace_config, child_rng(rng, "trace"),
        )
        state["apps"], state["trace"] = apps, trace
        report.put("workload.trace_s", seconds)
        report.put("workload.requests", len(trace.online_requests()))

    plan_names = (
        "stats.aggregate_s", "plan.build_s", "lp.solve_s", "plan.compute_s",
        "plan.decompose_s", "plan.classes", "plan.patterns",
    )

    def plan() -> None:
        substrate, apps = state["substrate"], state["apps"]
        aggregates, seconds = timed(
            lookup(targets["aggregate"]),
            state["trace"].history_requests(), config.history_slots,
            alpha=config.percentile_alpha,
            rng=state["child_rng"](state["rng"], "bootstrap"),
        )
        report.put("stats.aggregate_s", seconds)
        efficiency = lookup(targets["efficiency"])(
            config.efficiency or "uniform"
        )
        plan_config = lookup(targets["plan_config"])(
            num_quantiles=config.num_quantiles
        )
        args = (substrate, apps, aggregates, efficiency, plan_config)
        plan, compute = timed(lookup(targets["compute_plan"]), *args)
        report.put("plan.compute_s", compute)
        report.put("plan.classes", len(plan.classes))
        report.put("plan.patterns", plan.num_patterns)
        model, build = timed(lookup(targets["build_plan_vne"]), *args)
        _, solve = timed(lookup(targets["solve_lp"]), model.program)
        report.put("plan.build_s", build)
        report.put("lp.solve_s", solve)
        report.put("plan.decompose_s", compute - build - solve)

    report.guard(
        ("substrate.build_s", "substrate.nodes", "substrate.links"), substrate
    )
    report.guard(("workload.trace_s", "workload.requests"), trace)
    if algorithm_registry.get(workload.algorithm).needs_plan:
        report.guard(plan_names, plan)
    else:
        report.not_applicable.extend(plan_names)


def probe_session(
    report: LayerReport, session: SimulationSession, samples: list,
    targets: dict[str, str] = PROBE_TARGETS,
) -> dict:
    """Checkpoint costs and a GREEDYEMBED probe at one slot boundary.

    Read-only for ``session``: the embed probe runs against the residual
    of a session *restored* from the snapshot.
    """
    out: dict[str, Any] = {}

    def snapshot() -> None:
        snap, out["snapshot_ms"] = timed(session.snapshot)
        payload, out["to_bytes_ms"] = timed(snap.to_bytes)
        out["snapshot_mb"] = len(payload) / 2**20
        restored, out["restore_ms"] = timed(SimulationSession.restore, snap)
        out["restored"] = restored

    def embed() -> None:
        greedy_embed = lookup(targets["greedy_embed"])
        algorithm = out["restored"].algorithm
        context = getattr(algorithm, "greedy_context", None)
        clock = time.perf_counter
        times = []
        for request in samples:
            a = clock()
            greedy_embed(
                request, algorithm.apps[request.app_index],
                algorithm.substrate, algorithm.efficiency, algorithm.residual,
                context=context,
            )
            times.append(clock() - a)
        out["embed_us"] = [t * 1e6 for t in times]

    report.guard(
        ("sim.snapshot_ms", "sim.to_bytes_ms", "sim.snapshot_mb",
         "sim.restore_ms", "core.embed_us_p50"),
        snapshot,
    )
    if "restored" in out:
        report.guard(("core.embed_us_p50",), embed)
        del out["restored"]
    return out


GREEDY_COUNTERS = (
    "cache_hits", "cache_misses", "direct_routes", "mode_switches",
    "batch_rows", "batch_fallbacks", "batch_chunks",
)


def put_core_counters(report: LayerReport, algorithm: Any, decisions: list) -> None:
    """``core.*`` counts: GreedyContext.stats() and the decision stream."""

    def greedy() -> None:
        stats = algorithm.greedy_context.stats()
        for name in GREEDY_COUNTERS:
            report.put(f"core.{name}", stats[name])
        lookups = stats["cache_hits"] + stats["cache_misses"]
        report.put(
            "core.cache_hit_ratio",
            stats["cache_hits"] / lookups if lookups else 0.0,
        )
        commits = stats["batch_rows"] + stats["batch_fallbacks"]
        report.put(
            "core.batch_fallback_ratio",
            stats["batch_fallbacks"] / commits if commits else 0.0,
        )

    report.guard(
        tuple(f"core.{name}" for name in GREEDY_COUNTERS)
        + ("core.cache_hit_ratio", "core.batch_fallback_ratio"),
        greedy,
    )
    decided = [d for d in decisions if d is not None]
    report.put("core.planned", sum(d.planned for d in decided))
    report.put("core.borrowed", sum(d.borrowed for d in decided))
    report.put("core.via_greedy", sum(d.via_greedy for d in decided))
    report.put("core.preempted", sum(len(d.preempted) for d in decided))
    report.guard(
        ("core.invariant_gap",),
        lambda: report.put("core.invariant_gap", capacity_invariant_gap(algorithm)),
    )


# -- one traced run -----------------------------------------------------------

#: The session pass stops at these fractions of the horizon for the
#: snapshot and embed probes. Two stops, not more: one costs a deep copy
#: and a restore of the session, 17 s on ``small_planned``.
PROBE_AT = (0.5, 1.0)
EMBED_SAMPLES = 200


def session_pass(
    report: LayerReport, workload: Workload, scenario: Any,
    by_slot: list[list], slots: int, warm: int, targets: dict[str, str],
) -> DriveResult:
    """The trace through a bare session, pausing at slot boundaries for
    the checkpoint and embed probes."""
    session = make_session(workload, scenario, slots)
    requests = [r for run in by_slot for r in run]
    stride = max(1, len(requests) // EMBED_SAMPLES)
    samples = requests[::stride][:EMBED_SAMPLES]
    probe_at = {max(1, round(f * slots)) for f in PROBE_AT}
    probes: dict[int, dict] = {}

    def after_slot(boundary: int) -> None:
        if boundary in probe_at:
            probes[boundary] = probe_session(report, session, samples, targets)
            gc.collect()  # the probe's session copies, not the pass's debt

    result = drive(
        SessionDepth(session), by_slot, warm, trace=True, after_slot=after_slot
    )

    def put_snapshots() -> None:
        for key, scale in (
            ("snapshot_ms", 1e3), ("to_bytes_ms", 1e3), ("snapshot_mb", 1.0),
            ("restore_ms", 1e3),
        ):
            values = [probes[b][key] for b in sorted(probes)]
            report.put(f"sim.{key}", statistics.median(values) * scale)

    def put_embed() -> None:
        embed_us = [us for b in sorted(probes) for us in probes[b]["embed_us"]]
        report.put("core.embed_us_p50", statistics.median(embed_us))

    report.guard(
        ("sim.snapshot_ms", "sim.to_bytes_ms", "sim.snapshot_mb",
         "sim.restore_ms"),
        put_snapshots,
    )
    report.guard(("core.embed_us_p50",), put_embed)
    report.put("sim.decisions", len(session.result().decisions))
    return result


def put_phases(report: LayerReport, depth_names: tuple, result: DriveResult) -> None:
    """A pass's four timed phases under their layer metric names."""
    totals: dict[str, float] = {}
    for name, seconds in zip(depth_names, result.phases):
        if name is not None:
            totals[name] = totals.get(name, 0.0) + seconds
    for name, seconds in totals.items():
        report.put(name, seconds)


SHARD_ONLY = (
    "shard.build_s", "shard.offer_many_s", "shard.offer_s", "shard.advance_s",
    "shard.checkpoint_ms", "shard.boundary_links", "shard.cross_attempts",
    "shard.cross_commits", "shard.cross_aborts", "shard.self_s",
    "shard.unsharded_offers_per_s", "shard.over_unsharded",
    "shard.rejection_delta", "shard.process_over_inline",
)


def run_traced(
    workload: Workload, seed: int, scale: float = 1.0,
    targets: dict[str, str] = PROBE_TARGETS,
) -> dict:
    """One traced run: the per-layer table, from passes over one trace.

    Pass order: the service untraced (the end-to-end code path, base of
    ``bench.trace_overhead``), the service traced, then — sharded
    workloads only — the sharded service on process workers and the
    plain service, then the bare session, then the bare algorithm. A
    layer's self time is its pass minus the next pass down, so each is a
    difference between two runs over the same trace.
    """
    slots, warm = workload.sized(scale)
    sharded = workload.shards is not None
    plain = workload.unsharded()
    report = LayerReport()
    digests: dict[str, str] = {}

    service = workload.serve(slots)
    try:
        scenario = service.scenario
        by_slot = offer_trace(scenario, slots, seed)
        untraced = drive(ServiceDepth(service), by_slot, warm)
    finally:
        close_service(service)
    digests["service_untraced"] = decision_digest(untraced.decisions)
    del service

    top_layer = "shard" if sharded else "serve"
    if sharded:
        service, build = timed(make_service, workload, scenario, slots)
        report.put("shard.build_s", build)
    else:
        service = make_service(workload, scenario, slots)
    try:
        top_depth = ServiceDepth(service, top_layer)
        top = drive(top_depth, by_slot, warm, trace=True)
        put_phases(report, top_depth.phase_names, top)
        if sharded:
            put_shard_counters(report, service)
        else:
            put_core_counters(report, service.algorithm, top.decisions)
    finally:
        close_service(service)
    digests["service_traced"] = decision_digest(top.decisions)
    del service
    passes = {top_layer: top}

    if sharded:
        service = make_service(workload, scenario, slots, workers="process")
        try:
            process = drive(ServiceDepth(service), by_slot, warm)
        finally:
            close_service(service)
        digests["service_process_workers"] = decision_digest(process.decisions)
        report.put(
            "shard.process_over_inline",
            (process.bulk_offers / process.bulk_wall)
            / (untraced.bulk_offers / untraced.bulk_wall),
        )
        del process

        service = make_service(plain, scenario, slots)
        depth = ServiceDepth(service)
        passes["serve"] = drive(depth, by_slot, warm, trace=True)
        put_phases(report, depth.phase_names, passes["serve"])
        put_core_counters(report, service.algorithm, passes["serve"].decisions)
        digests["service_unsharded"] = decision_digest(passes["serve"].decisions)
        del service

    passes["sim"] = session_pass(
        report, plain, scenario, by_slot, slots, warm, targets
    )
    put_phases(report, SessionDepth.phase_names, passes["sim"])
    digests["session"] = decision_digest(passes["sim"].decisions)

    core_names = ("core.process_s", "core.release_s", "sim.self_s")
    if workload.events is None:
        algorithm = algorithm_registry.create(workload.algorithm, scenario)
        passes["core"] = drive(
            AlgorithmDepth(algorithm, by_slot), by_slot, warm, trace=True
        )
        put_phases(report, AlgorithmDepth.phase_names, passes["core"])
        digests["algorithm"] = decision_digest(passes["core"].decisions)
        del algorithm
    else:
        # The event cursor lives in the session; replaying it here would
        # re-implement the session, not probe the algorithm.
        report.not_applicable.extend(core_names)

    # Self times, top down; each is one pass minus the next.
    order = [name for name in ("shard", "serve", "sim", "core") if name in passes]
    for upper, lower in zip(order, order[1:]):
        report.put(f"{upper}.self_s", passes[upper].inside - passes[lower].inside)
    if "core" not in passes:
        report.metrics.pop("sim.self_s", None)

    latencies = sorted(untraced.latencies)
    single_rate = untraced.single_offers / untraced.single_wall
    bulk_rate = untraced.bulk_offers / untraced.bulk_wall
    report.put("serve.single_offers_per_s", single_rate)
    report.put("serve.bulk_over_single", bulk_rate / single_rate)
    report.put("serve.offer_p95_us", percentile(latencies, 0.95) * 1e6)
    report.put("serve.offer_p99_us", percentile(latencies, 0.99) * 1e6)
    report.put("serve.offer_max_us", latencies[-1] * 1e6)
    # Medians by outcome: where rejections are the cheap mode of a
    # bimodal latency (QUICKG refuses at the host scan, before routing),
    # these hold still when the share of rejections moves the overall
    # median from one mode to the other.
    outcomes = list(zip(untraced.latencies, untraced.latency_accepted))
    for name, outcome in (
        ("serve.accept_p50_us", True), ("serve.reject_p50_us", False),
    ):
        of_outcome = [s for s, accepted in outcomes if accepted is outcome]
        if of_outcome:
            report.put(name, statistics.median(of_outcome) * 1e6)
        else:
            report.not_applicable.append(name)
    if sharded:
        plain_pass = passes["serve"]
        plain_rate = plain_pass.bulk_offers / plain_pass.bulk_wall
        report.put("shard.unsharded_offers_per_s", plain_rate)
        report.put("shard.over_unsharded", bulk_rate / plain_rate)
        report.put(
            "shard.rejection_delta",
            untraced.rejection_rate - plain_pass.rejection_rate,
        )
    else:
        report.not_applicable.extend(SHARD_ONLY)
    report.put("bench.trace_overhead", top.wall / untraced.wall)
    # Everything the top pass spent inside the system is handed to some
    # layer above; what is left of its wall is the harness's own loop.
    report.put("bench.layer_cover", top.inside / top.wall)

    probe_setup_layers(report, plain, slots, targets)

    # Depths that embed on the whole substrate must agree with each
    # other; the sharded passes must agree with each other.
    if sharded:
        own = ("service_untraced", "service_traced", "service_process_workers")
        groups = [
            {d for n, d in digests.items() if n in own},
            {d for n, d in digests.items() if n not in own},
        ]
    else:
        groups = [set(digests.values())]
    agree = all(len(group) == 1 for group in groups)
    failed = sum(p.failed for p in (untraced, *passes.values()))
    # A skipped metric reads 0 on the driver's result line, which for a
    # time is a perfect score: a run with a broken probe is not correct.
    checks = {
        "depth_digests_agree": agree,
        "no_failed_offers": failed == 0,
        "no_probe_skipped": not report.skipped,
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "scenario_seed": workload.scenario_seed,
        "slots": slots,
        "warm": warm,
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": top.attempted,
        "failed": failed,
        "errors": [e for p in passes.values() for e in p.errors][:3],
        "digest": digests["service_untraced"],
        "digests": digests,
        "metrics": report.metrics,
        "skipped": report.skipped,
        "not_applicable": sorted(report.not_applicable),
        "spans": {name: p.spans for name, p in passes.items()},
    }


def put_shard_counters(report: LayerReport, service: Any) -> None:
    """Sharded-frontend counts and the cost of one checkpoint round.

    Runs at the end of the traced sharded pass, at a slot boundary.
    """
    def checkpoint() -> None:
        rounds = [timed(service.checkpoint_workers)[1] for _ in range(3)]
        report.put("shard.checkpoint_ms", statistics.median(rounds) * 1e3)

    def counters() -> None:
        stats = service.cross_shard_stats()
        report.put("shard.boundary_links", len(service.partition.boundary_links))
        report.put("shard.cross_attempts", stats["attempts"])
        report.put("shard.cross_commits", stats["commits"])
        report.put("shard.cross_aborts", stats["aborts"])

    report.guard(("shard.checkpoint_ms",), checkpoint)
    report.guard(
        ("shard.boundary_links", "shard.cross_attempts",
         "shard.cross_commits", "shard.cross_aborts"),
        counters,
    )


# -- --check ------------------------------------------------------------------

CHECK_SCALE = 0.1


def check_workload(
    workload: Workload, seed: int, scale: float = CHECK_SCALE
) -> list[dict]:
    """The correctness gate, at a tenth of the horizon.

    Returns one ``{"workload", "check", "ok", "detail"}`` row per property.
    """
    slots, warm = workload.sized(scale)
    rows: list[dict] = []

    def row(check: str, ok: bool, detail: str = "") -> None:
        rows.append(
            {"workload": workload.name, "check": check, "ok": bool(ok),
             "detail": detail}
        )

    def digest_of(service: Any, trace: list[list], mode: str) -> str:
        try:
            result = drive(ServiceDepth(service), trace, warm, mode=mode)
        finally:
            close_service(service)
        return decision_digest(result.decisions)

    first = run_end_to_end(workload, seed, scale, setup_reps=1)
    digest = first["digest"]
    row("offers_failed == 0", first["failed"] == 0,
        f"{first['failed']} of {first['attempted']}")
    for name, ok in first["checks"].items():
        row(name, ok)

    again = workload.serve(slots)
    scenario = again.scenario
    by_slot = offer_trace(scenario, slots, seed)
    row("two runs of one seed agree",
        digest_of(again, by_slot, "interleaved") == digest)

    traced = run_traced(workload, seed, scale)
    row("traced run agrees with untraced",
        traced["correct"] and traced["digest"] == digest,
        ", ".join(f"{k}={v[:8]}" for k, v in traced["digests"].items()))

    # The sharded frontend retries a batch's home-shard rejections on
    # neighbour shards after the whole batch was offered at home, a
    # single offer right away: there the two calls decide differently
    # by design, and the drive kinds are not interchangeable.
    for mode in ("bulk", "single") if workload.shards is None else ():
        service = make_service(workload, scenario, slots)
        row(f"all-{mode} drive agrees with interleaved",
            digest_of(service, by_slot, mode) == digest)

    service = make_service(workload, scenario, slots)
    other = offer_trace(scenario, slots, seed + 1)
    row("a second seed offers another order and is decided too",
        digest_of(service, other, "interleaved") != digest)

    if workload.reference_check:
        reference = OliveAlgorithm(
            scenario.substrate, scenario.apps, scenario.plan,
            efficiency=scenario.efficiency, use_fast_greedy=False,
        )
        service = make_service(workload, scenario, slots, algorithm=reference)
        row("fast path == use_fast_greedy=False reference",
            digest_of(service, by_slot, "interleaved") == digest)
    return rows
