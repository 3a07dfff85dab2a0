"""Hot-path microbenchmark: the online-embedding core, fast vs reference.

Measures three things on the fig16-style workload and records them to a
``BENCH_hotpath.json`` trajectory file (one record appended per run, so
regressions show up as a time series across commits):

* engine throughput — slots/sec and requests/sec of whole simulations
  through the indexed fast path (OLIVE and QUICKG), recorded as the
  best of :data:`ENGINE_REPEATS` runs per engine (decisions are
  identical across repeats; only scheduler noise varies);
* engine speedup — the same simulations through the frozen pre-fast-path
  reference (:mod:`repro.core.greedy_reference`, scalar Dijkstra +
  O(nodes) scan per request), with **bit-identical decisions asserted**
  on the exact benchmark workload;
* embed-call speedup — the pure GREEDYEMBED step in isolation (indexed
  Dijkstra + profile-driven scoring vs the dict-keyed reference),
  without the per-request Decision/bookkeeping overhead both engines
  share.

Smoke mode (``REPRO_BENCH_FAST=1``, used by CI) shrinks the workload but
keeps the equivalence assertion — a decision divergence fails the build
even when timings are too noisy to gate on.
"""

from __future__ import annotations

import json
import time

import numpy as np

from _bench_utils import FAST, RESULTS_DIR, bench_config, record
from repro.baselines.quickg import make_quickg
from repro.core import greedy_reference
from repro.core.embedding import compute_loads
from repro.core.greedy import GreedyContext
from repro.core.olive import OliveAlgorithm
from repro.core.residual import ResidualState
from repro.experiments.scenario import build_scenario
from repro.sim.engine import simulate

TRAJECTORY_FILE = RESULTS_DIR / "BENCH_hotpath.json"

#: Floors for full local runs — actual speedups are recorded, not
#: asserted, beyond these. **No engine row may be slower than the
#: reference** (the 1.0 floor applies to every recorded engine); QUICKG
#: additionally keeps measured headroom. The embed-call floor is the
#: lowest of ten quiet-box readings of the final code (2.43–2.53) minus
#: their 0.10 spread; with both cores contended the ratio swings
#: 1.8–3.0, so no floor near the measurement survives a loaded box.
#: Smoke mode skips the wall-clock gates entirely (shared CI runners are
#: flaky); the decision-equivalence assertion always applies.
MIN_ENGINE_SPEEDUP = {"OLIVE": 1.0, "QUICKG": 1.3}
MIN_EMBED_SPEEDUP = 2.3

#: Whole-sim repetitions per engine (full runs): the recorded runtime is
#: the best of these, a repeatable cost estimate rather than one noisy
#: draw — a single simulation is ~0.3 s, where scheduler jitter alone
#: can swamp the fast-vs-reference margin the 1.0 floor gates on.
ENGINE_REPEATS = 3


def _assert_identical(fast, reference, label):
    assert len(fast.decisions) == len(reference.decisions), label
    for ours, theirs in zip(fast.decisions, reference.decisions):
        assert ours == theirs, (label, ours.request.id)
    assert fast.preemptions == reference.preemptions, label
    assert np.array_equal(fast.allocated_demand, reference.allocated_demand)
    assert np.array_equal(fast.resource_cost, reference.resource_cost)


def _bench_embed_call(scenario, sample_size):
    """Per-call timing of the pure embedding step, decisions locked."""
    substrate = scenario.substrate
    efficiency = scenario.efficiency
    fast_residual = ResidualState(substrate)
    ref_residual = ResidualState(substrate)
    context = GreedyContext(substrate, efficiency, fast_residual)
    fast_time = 0.0
    ref_time = 0.0
    calls = 0
    for request in scenario.online_requests()[:sample_size]:
        app = scenario.apps[request.app_index]
        start = time.perf_counter()
        got = context.embed(request, app, allow_split_groups=False)
        fast_time += time.perf_counter() - start
        start = time.perf_counter()
        expected = greedy_reference.greedy_embed(
            request, app, substrate, efficiency, ref_residual,
            allow_split_groups=False,
        )
        ref_time += time.perf_counter() - start
        calls += 1
        if expected is None:
            assert got is None
            continue
        embedding, loads = got
        assert embedding == expected
        fast_residual.allocate(loads)
        ref_residual.allocate(
            compute_loads(app, request.demand, expected, substrate,
                          efficiency)
        )
    return {
        "calls": calls,
        "fast_us_per_call": 1e6 * fast_time / max(calls, 1),
        "reference_us_per_call": 1e6 * ref_time / max(calls, 1),
        "speedup": ref_time / max(fast_time, 1e-12),
    }


def test_hotpath_microbenchmark(benchmark):
    config = bench_config(
        topology="CittaStudi",
        repetitions=1,
        arrivals_per_node=10.0 if FAST else 20.0,
    )
    scenario = build_scenario(config, 0)
    online = scenario.online_requests()
    slots = config.online_slots

    def algorithms(fast):
        return {
            "OLIVE": OliveAlgorithm(
                scenario.substrate, scenario.apps, scenario.plan,
                efficiency=scenario.efficiency, use_fast_greedy=fast,
            ),
            "QUICKG": make_quickg(
                scenario.substrate, scenario.apps, scenario.efficiency,
                use_fast_greedy=fast,
            ),
        }

    repeats = 1 if FAST else ENGINE_REPEATS
    fast_algorithms = {}

    def run_engines(fast, keep_algorithms=None):
        """Best-of-``repeats`` simulation per engine (identical decisions
        every repeat — only the runtime varies)."""
        results = {}
        for _ in range(repeats):
            for name, alg in algorithms(fast).items():
                result = simulate(alg, online, slots)
                best = results.get(name)
                if best is None or result.runtime_seconds < best.runtime_seconds:
                    results[name] = result
                    if keep_algorithms is not None:
                        keep_algorithms[name] = alg
        return results

    fast_results = benchmark.pedantic(
        run_engines, args=(True, fast_algorithms), rounds=1, iterations=1
    )
    reference_results = run_engines(False)

    entry = {
        "topology": config.topology,
        "arrivals_per_node": config.arrivals_per_node,
        "online_slots": slots,
        "num_requests": len(online),
        "fast_mode": FAST,
        "engine_repeats": repeats,
        "engines": {},
    }
    lines = [
        f"[{config.topology}] λ={config.arrivals_per_node:.0f}, "
        f"{slots} slots, {len(online)} requests"
    ]
    for name, fast in fast_results.items():
        reference = reference_results[name]
        _assert_identical(fast, reference, name)
        speedup = reference.runtime_seconds / max(
            fast.runtime_seconds, 1e-12
        )
        entry["engines"][name] = {
            "slots_per_sec": fast.slots_per_second,
            "requests_per_sec": fast.requests_per_second,
            "runtime_seconds": fast.runtime_seconds,
            "reference_runtime_seconds": reference.runtime_seconds,
            "speedup_vs_reference": speedup,
            "greedy": fast_algorithms[name].greedy_context.stats(),
        }
        lines.append(
            f"  {name:7} {fast.slots_per_second:8.0f} slots/s  "
            f"{fast.requests_per_second:9.0f} req/s  "
            f"{speedup:4.1f}x vs reference (decisions identical)"
        )

    embed = _bench_embed_call(scenario, 500 if FAST else 2000)
    entry["embed_call"] = embed
    lines.append(
        f"  embed   {embed['fast_us_per_call']:6.1f}us/call vs "
        f"{embed['reference_us_per_call']:6.1f}us reference  "
        f"{embed['speedup']:4.1f}x ({embed['calls']} calls)"
    )
    record("hotpath", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        trajectory = json.loads(TRAJECTORY_FILE.read_text())
    except (OSError, ValueError):
        trajectory = []
    trajectory.append(entry)
    TRAJECTORY_FILE.write_text(json.dumps(trajectory, indent=1) + "\n")

    # Smoke mode (CI, shared runners): decision equivalence is the gate;
    # wall-clock floors only bind on full local runs where timings are
    # meaningful.
    if not FAST:
        for name, row in entry["engines"].items():
            floor = max(MIN_ENGINE_SPEEDUP.get(name, 1.0), 1.0)
            assert row["speedup_vs_reference"] >= floor, (name, row)
        assert embed["speedup"] >= MIN_EMBED_SPEEDUP, embed
