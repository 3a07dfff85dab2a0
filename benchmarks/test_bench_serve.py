"""Streaming-session overhead benchmark: batch vs step() vs offer().

The batch entry point ``simulate()`` is now a thin wrapper over the
streaming :class:`~repro.sim.session.SimulationSession`; this benchmark
guards the cost of that indirection and of the two streaming drive
styles, recording a ``BENCH_serve.json`` trajectory (one record
appended per run):

* **batch** — ``simulate()`` over the full trace (the figure drivers'
  path; any slow-down here regresses every experiment);
* **stepped** — the same session driven ``step()`` by ``step()`` from
  outside, measuring the per-slot lifecycle overhead;
* **served** — the same arrivals pushed through
  ``EmbedderService.offer_many()`` one slot-run at a time (admission
  check + per-offer metrics on top of the session, with the run routed
  through the algorithm's vectorized batch kernel).

Decisions are asserted bit-identical across all three on the exact
benchmark workload, every run. Wall-clock gates (stepped ≤ 5% over
batch) only bind on full local runs — smoke mode
(``REPRO_BENCH_FAST=1``, used by CI) keeps the equivalence assertions
but skips timing floors, like the hot-path benchmark.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time

import numpy as np

from _bench_utils import FAST, RESULTS_DIR, bench_config, record
from repro.baselines.quickg import make_quickg
from repro.core.olive import OliveAlgorithm
from repro.experiments.scenario import build_scenario
from repro.serve import EmbedderService
from repro.sim.engine import simulate
from repro.sim.session import SimulationSession

TRAJECTORY_FILE = RESULTS_DIR / "BENCH_serve.json"

#: The design target recorded in every trajectory entry: stepping the
#: session from outside should cost at most 5% over the batch run.
TARGET_STEP_OVERHEAD = 1.05
#: The assertion bound on the best paired-round ratio — looser than the
#: target because single-machine wall-clock noise at these run lengths
#: is ~±10% (full local runs only; smoke mode never gates on time).
MAX_STEP_OVERHEAD = 1.15
#: Bound on ``served_over_batch``: offering a slot's arrivals through
#: :meth:`EmbedderService.offer_many` must stay within 10% of the batch
#: drive. The per-offer admission/metrics layer amortizes over the run
#: and the embed work itself goes through the same batch kernel, so the
#: serve path no longer pays a per-request penalty.
MAX_SERVE_OVERHEAD = 1.10


@contextlib.contextmanager
def _quiesced_gc():
    """Collect upfront, then keep the collector out of the timed region.

    The three paths allocate ~10k decision objects per run; without this
    the generational collector fires at arbitrary points and charges a
    growing heap to whichever path happens to run later — the dominant
    noise source at these sub-second run lengths.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _assert_identical(ours, batch, label):
    assert len(ours.decisions) == len(batch.decisions), label
    for a, b in zip(ours.decisions, batch.decisions):
        assert a == b, (label, a.request.id)
    assert ours.preemptions == batch.preemptions, label
    assert np.array_equal(ours.allocated_demand, batch.allocated_demand)
    assert np.array_equal(ours.resource_cost, batch.resource_cost)


def _make_algorithm(scenario, name):
    if name == "OLIVE":
        return OliveAlgorithm(
            scenario.substrate, scenario.apps, scenario.plan,
            efficiency=scenario.efficiency,
        )
    return make_quickg(scenario.substrate, scenario.apps, scenario.efficiency)


def test_serve_overhead(benchmark):
    config = bench_config(
        topology="CittaStudi",
        repetitions=1,
        arrivals_per_node=5.0 if FAST else 10.0,
    )
    scenario = build_scenario(config, 0)
    online = scenario.online_requests()
    slots = config.online_slots
    names = ("QUICKG",) if FAST else ("OLIVE", "QUICKG")
    # Min-of-5: at these ~0.1 s run lengths single-draw scheduler noise
    # is ±15-20%, larger than the overheads the gates bound; five
    # rotated rounds make the recorded minima repeatable.
    rounds = 1 if FAST else 5
    by_slot: dict[int, list] = {}
    for request in sorted(online):
        by_slot.setdefault(request.arrival, []).append(request)

    def run_batch(name):
        algorithm = _make_algorithm(scenario, name)
        with _quiesced_gc():
            start = time.perf_counter()
            result = simulate(algorithm, online, slots)
            return result, time.perf_counter() - start

    def run_stepped(name):
        algorithm = _make_algorithm(scenario, name)
        session = SimulationSession(algorithm, online, slots)
        with _quiesced_gc():
            start = time.perf_counter()
            for _ in range(slots):
                session.step()
            return session.result(), time.perf_counter() - start

    def run_served(name):
        algorithm = _make_algorithm(scenario, name)
        session = SimulationSession(algorithm, [], slots)
        service = EmbedderService(session)
        with _quiesced_gc():
            start = time.perf_counter()
            for slot in range(slots):
                run = by_slot.get(slot)
                if run:
                    service.offer_many(run)
                service.advance_to(slot + 1)
            return service.result(), time.perf_counter() - start

    def run_all():
        """Per-round walls per (path, algorithm); results kept once.

        The path order rotates per round so a drifting machine load
        (other processes ramping up mid-benchmark) cannot systematically
        penalize whichever path happens to run last — with min-of-rounds
        every path gets an early slot.
        """
        paths = (
            ("batch", run_batch),
            ("stepped", run_stepped),
            ("served", run_served),
        )
        measured = {}
        for name in names:
            walls = {path: [] for path, _ in paths}
            results = {}
            for round_index in range(rounds):
                shift = round_index % len(paths)
                for path, runner in paths[shift:] + paths[:shift]:
                    results[path], wall = runner(name)
                    walls[path].append(wall)
            measured[name] = (results, walls)
        return measured

    measured = benchmark.pedantic(run_all, rounds=1, iterations=1)

    entry = {
        "topology": config.topology,
        "arrivals_per_node": config.arrivals_per_node,
        "online_slots": slots,
        "num_requests": len(online),
        "fast_mode": FAST,
        "rounds": rounds,
        "target_stepped_over_batch": TARGET_STEP_OVERHEAD,
        "paths": {},
    }
    lines = [
        f"[{config.topology}] λ={config.arrivals_per_node:.0f}, "
        f"{slots} slots, {len(online)} requests, min of {rounds} round(s)"
    ]
    for name in names:
        results, walls = measured[name]
        batch_result = results["batch"]
        batch_wall = min(walls["batch"])
        stepped_wall = min(walls["stepped"])
        served_wall = min(walls["served"])
        _assert_identical(results["stepped"], batch_result, f"stepped:{name}")
        _assert_identical(results["served"], batch_result, f"served:{name}")
        # Overhead ratios are paired per round (each round times all
        # three paths back to back), then the best round wins: a machine
        # that is uniformly slow for one whole round cancels out of that
        # round's ratio, where a min-wall/min-wall quotient would pair a
        # lucky batch draw with an unlucky served one. At these ~0.1 s
        # run lengths between-round drift is several times the overhead
        # being gated.
        step_overhead = min(
            s / max(b, 1e-12)
            for s, b in zip(walls["stepped"], walls["batch"])
        )
        serve_overhead = min(
            s / max(b, 1e-12)
            for s, b in zip(walls["served"], walls["batch"])
        )
        entry["paths"][name] = {
            "batch_wall_seconds": batch_wall,
            "stepped_wall_seconds": stepped_wall,
            "served_wall_seconds": served_wall,
            "stepped_over_batch": step_overhead,
            "served_over_batch": serve_overhead,
            "per_step_overhead_us": 1e6
            * (step_overhead - 1.0) * batch_wall
            / slots,
            "per_offer_overhead_us": 1e6
            * (serve_overhead - 1.0) * batch_wall
            / max(len(online), 1),
        }
        lines.append(
            f"  {name:7} batch {batch_wall:6.3f}s  stepped "
            f"{stepped_wall:6.3f}s ({step_overhead:5.2f}x)  served "
            f"{served_wall:6.3f}s ({serve_overhead:5.2f}x)  "
            "(decisions identical)"
        )
    record("serve_overhead", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        trajectory = json.loads(TRAJECTORY_FILE.read_text())
    except (OSError, ValueError):
        trajectory = []
    trajectory.append(entry)
    TRAJECTORY_FILE.write_text(json.dumps(trajectory, indent=1) + "\n")

    if not FAST:
        for name in names:
            assert entry["paths"][name]["stepped_over_batch"] <= (
                MAX_STEP_OVERHEAD
            ), (name, entry["paths"][name])
            assert entry["paths"][name]["served_over_batch"] <= (
                MAX_SERVE_OVERHEAD
            ), (name, entry["paths"][name])
