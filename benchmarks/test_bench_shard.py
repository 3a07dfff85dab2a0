"""Sharded serving tier: aggregate offers/sec vs shard count.

Drives the same generated Poisson trace through the
:class:`~repro.shard.ShardedEmbedderService` at K ∈ {1, 2, 4, 8} process
workers on the ``tiered-x:400`` generated topology and records the
aggregate offer throughput to a ``BENCH_shard.json`` trajectory (one
record appended per run). Checkpointing stays at the serving default
(every slot boundary) so the measured number is the real tier, failover
insurance included — and that insurance is priced in the record: per K,
``checkpoint_ms`` is the median of the drive's last three
``checkpoint_workers()`` rounds — the boundaries that follow the last
three served slots, where the decision log, which a checkpoint carries
whole, is longest — and ``checkpoint_mb`` the bytes the frontend then
holds for all K workers. A round pickles what its slot added (the
decisions logged, the allocations made) and copies the sealed bytes of
everything older, so it is timed behind a served slot: back-to-back
rounds with nothing new between them read the floor, not what a
boundary costs.

Correctness gates, every run:

* **K=1 bit-identity** — the single-shard sharded service must produce
  the exact decision stream of the unsharded
  :class:`~repro.serve.EmbedderService` on the benchmark trace;
* all shard counts serve the same number of offers (the trace routes
  identically regardless of the partition).

Wall-clock gate (full runs only): K=4 must beat K=1 on aggregate
offers/sec — the whole point of the tier. ``k1_over_unsharded`` (the K=1
tier's rate over the unsharded service's, median of :data:`PAIR_ROUNDS`
back-to-back pairs) is recorded with its pairs and not asserted: K=1
does the unsharded service's work plus a checkpoint and two pipe round
trips per slot, so the ratio is the tier's fixed tax, and it moves
whenever the unsharded service gets faster — ROADMAP item 3 gates it
against the unsharded rate on a ≥ 4-core runner. Smoke mode
(``REPRO_BENCH_FAST=1``, used by CI) shrinks the topology and the shard
ladder but keeps the bit-identity gate.
"""

from __future__ import annotations

import json
import statistics
import time

from _bench_utils import FAST, RESULTS_DIR, bench_config, record
from repro.api import Experiment
from repro.experiments.figures import scale_config
from repro.serve import poisson_offers
from repro.utils.rng import child_rng, make_rng

TRAJECTORY_FILE = RESULTS_DIR / "BENCH_shard.json"

TOPOLOGY = "tiered-x:120" if FAST else "tiered-x:400"
SHARD_COUNTS = (1, 2) if FAST else (1, 2, 4, 8)
ALGORITHM = "QUICKG"
SEED = 0

#: Back-to-back (unsharded, K=1) pairs behind ``k1_over_unsharded``.
PAIR_ROUNDS = 1 if FAST else 3


def _shard_bench_config():
    """The scale-curve preset on one generated topology (no sweep)."""
    config = scale_config(bench_config(topology=TOPOLOGY, repetitions=1))
    if FAST:
        config = config.with_(online_slots=12, measure_start=2,
                              measure_stop=10)
    return config


def _trace(scenario, slots):
    """The benchmark workload, materialized once and replayed per K."""
    rng = child_rng(make_rng(SEED), "serve-traffic")
    return list(poisson_offers(scenario, slots, rng))


def _drive(service, trace):
    """Offer the trace slot by slot; return (decisions, wall seconds)."""
    decisions = []
    start = time.perf_counter()
    for slot, batch in trace:
        if batch:
            decisions.extend(service.offer_many(batch))
        service.advance_to(slot + 1)
    return decisions, time.perf_counter() - start


def _time_checkpoints(service):
    """Seconds of every ``checkpoint_workers()`` round from here on.

    ``advance_to`` checkpoints through the instance, so the wrapper
    installed there times the rounds the drive itself triggers, one per
    slot boundary; the returned list grows as they happen.
    """
    rounds = []
    checkpoint = service.checkpoint_workers

    def timed():
        start = time.perf_counter()
        checkpoint()
        rounds.append(time.perf_counter() - start)

    service.checkpoint_workers = timed
    return rounds


def _checkpoint_cost(service, rounds):
    """``(ms, MB)`` of one ``checkpoint_workers()`` round, all K workers.

    Median of the drive's last three rounds, each behind a served slot;
    the size is what the frontend holds afterwards (white-box: the
    checkpoints have no public reader, failover is their only user).
    """
    held = sum(len(payload) for payload in service._checkpoints)
    return statistics.median(rounds[-3:]) * 1e3, held / 2**20


def _k1_over_unsharded(experiment, trace, first_pair):
    """Per-pair K=1 / unsharded rate ratios, ``first_pair`` included.

    Each pair drives a fresh unsharded service and then a fresh K=1
    tier over the same trace, so a slow spell of the box lands on both
    sides of a ratio.
    """
    unsharded_wall, k1_wall = first_pair
    ratios = [unsharded_wall / k1_wall]
    for _ in range(PAIR_ROUNDS - 1):
        _, unsharded_wall = _drive(experiment.serve(seed=SEED), trace)
        with experiment.serve(
            seed=SEED, shards=1, shard_workers="process"
        ) as service:
            _, k1_wall = _drive(service, trace)
        ratios.append(unsharded_wall / k1_wall)
    return ratios


def test_shard_throughput(benchmark):
    config = _shard_bench_config()
    experiment = Experiment(config).algorithms(ALGORITHM)
    slots = config.online_slots

    # The unsharded oracle: same scenario, same trace, one process.
    oracle = experiment.serve(seed=SEED)
    trace = _trace(oracle.scenario, slots)
    num_offers = sum(len(batch) for _, batch in trace)
    oracle_decisions, oracle_wall = _drive(oracle, trace)

    def run_ladder():
        measured = {}
        for num_shards in SHARD_COUNTS:
            service = experiment.serve(
                seed=SEED, shards=num_shards, shard_workers="process"
            )
            with service:
                rounds = _time_checkpoints(service)
                decisions, wall = _drive(service, trace)
                checkpoint_ms, checkpoint_mb = _checkpoint_cost(
                    service, rounds
                )
                measured[num_shards] = {
                    "decisions": decisions,
                    "wall": wall,
                    "checkpoint_ms": checkpoint_ms,
                    "checkpoint_mb": checkpoint_mb,
                    "cross_shard": service.cross_shard_stats(),
                    "boundary_links": len(service.partition.boundary_links),
                }
        return measured

    measured = benchmark.pedantic(run_ladder, rounds=1, iterations=1)

    # Gate: K=1 sharded ≡ unsharded, decision by decision.
    assert measured[1]["decisions"] == oracle_decisions
    for num_shards in SHARD_COUNTS:
        assert len(measured[num_shards]["decisions"]) == num_offers

    # The ladder's K=1 run directly follows the oracle's: the first pair.
    ratios = _k1_over_unsharded(
        experiment, trace, (oracle_wall, measured[1]["wall"])
    )

    entry = {
        "topology": TOPOLOGY,
        "algorithm": ALGORITHM,
        "online_slots": slots,
        "num_offers": num_offers,
        "fast_mode": FAST,
        "unsharded_offers_per_sec": num_offers / oracle_wall,
        "k1_over_unsharded": statistics.median(ratios),
        "k1_over_unsharded_pairs": ratios,
        "shards": {},
    }
    lines = [
        f"[{TOPOLOGY}] {ALGORITHM}, {slots} slots, {num_offers} offers, "
        f"per-slot checkpointing (K=1 decisions ≡ unsharded)",
        f"  unsharded {num_offers / oracle_wall:8.0f} offers/s "
        f"({oracle_wall:6.2f}s)",
        f"  K=1 / unsharded {entry['k1_over_unsharded']:.2f} (pairs "
        + " ".join(f"{ratio:.2f}" for ratio in ratios) + ")",
    ]
    base_rate = num_offers / measured[1]["wall"]
    for num_shards in SHARD_COUNTS:
        stats = measured[num_shards]
        rate = num_offers / stats["wall"]
        cross = stats["cross_shard"]
        entry["shards"][str(num_shards)] = {
            "offers_per_sec": rate,
            "wall_seconds": stats["wall"],
            "speedup_vs_k1": rate / base_rate,
            "checkpoint_ms": stats["checkpoint_ms"],
            "checkpoint_mb": stats["checkpoint_mb"],
            "boundary_links": stats["boundary_links"],
            "cross_shard_attempts": cross["attempts"],
            "cross_shard_commits": cross["commits"],
        }
        lines.append(
            f"  K={num_shards}       {rate:8.0f} offers/s "
            f"({stats['wall']:6.2f}s)  {rate / base_rate:5.2f}x vs K=1  "
            f"checkpoint {stats['checkpoint_ms']:6.1f} ms "
            f"{stats['checkpoint_mb']:5.2f} MB  "
            f"boundary={stats['boundary_links']}  "
            f"cross={cross['commits']}/{cross['attempts']}"
        )
    record("shard", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        trajectory = json.loads(TRAJECTORY_FILE.read_text())
    except (OSError, ValueError):
        trajectory = []
    trajectory.append(entry)
    TRAJECTORY_FILE.write_text(json.dumps(trajectory, indent=1) + "\n")

    # Wall-clock gate: sharding must pay for itself by K=4.
    if not FAST:
        assert entry["shards"]["4"]["speedup_vs_k1"] > 1.0, entry["shards"]
