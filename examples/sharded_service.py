#!/usr/bin/env python3
"""Scale-out serving: a partitioned substrate behind one frontend.

`streaming_service.py` runs the live service on one core and restores a
snapshot bit-identically — this example scales the same service *out*
with the `repro.shard` tier, and extends the failover story to a worker
that is hard-killed mid-run:

1. partition the substrate into K connected region shards with the
   registered policies (`kbalanced`, `tier-aware`) and inspect the
   balance/boundary diagnostics;
2. stand up a `ShardedEmbedderService` (`Experiment(...).serve(shards=K)`)
   — one worker process per shard — and drive it with Poisson traffic,
   watching the merged rolling metrics and the two-phase cross-shard
   ledger;
3. kill a worker process of a rate-limited (`token-bucket`) service at
   a slot boundary, restore a spare from its latest checkpoint, keep
   serving — and verify the full decision stream and the shed count
   are bit-identical to a run where nothing died;
4. check the K=1 contract: a single-shard sharded service reproduces
   the unsharded `EmbedderService` decision for decision.

Run:  python examples/sharded_service.py [--seed N]
"""

import argparse

from repro import Experiment, ExperimentConfig, partition_substrate
from repro.serve import poisson_offers
from repro.substrate import make_citta_studi
from repro.utils.rng import child_rng, make_rng


def drive(service, traffic, report_every=None):
    """Offer every batch, advancing the shared clock slot by slot."""
    decisions = []
    for slot, batch in traffic:
        decisions.extend(service.offer_many(batch))
        service.advance_to(slot + 1)
        if report_every and (slot + 1) % report_every == 0:
            print(f"  {service.metrics().describe()}")
    return decisions


def main(seed: int = 42) -> None:
    config = ExperimentConfig.test(
        utilization=1.2, online_slots=24, measure_start=4, measure_stop=20,
        base_seed=seed,
    )
    experiment = Experiment(config).algorithms("QUICKG")

    # -- 1: partition policies side by side --------------------------------
    substrate = make_citta_studi()
    print(f"partitioning {substrate.name} "
          f"({substrate.num_nodes} nodes, {substrate.num_links} links):")
    for policy in ("kbalanced", "tier-aware"):
        summary = partition_substrate(
            substrate, 3, policy=policy, seed=seed
        ).summary()
        print(f"  {policy:<11} nodes/shard={summary['nodes_per_shard']}  "
              f"imbalance={summary['capacity_imbalance']:.2f}  "
              f"boundary={summary['boundary_links']} links "
              f"({summary['boundary_fraction']:.0%})")
    print()

    # -- 2: a sharded horizon with merged rolling metrics ------------------
    service = experiment.serve(seed=seed, shards=3)
    print(f"serving across {service.num_shards} worker processes:")
    rng = child_rng(make_rng(seed), "traffic")
    traffic = list(poisson_offers(service.scenario, config.online_slots, rng))
    with service:
        drive(service, traffic, report_every=8)
        result = service.finish()
    cross = result.cross_shard
    print(f"sharded done: {result.num_offers} offers, "
          f"{result.acceptance_rate:.1%} accepted; cross-shard "
          f"{cross['commits']} committed / {cross['aborts']} aborted\n")

    # -- 3: kill a worker mid-run, restore a spare, compare ----------------
    # A stateful admission policy: the spare must inherit the bucket.
    limited = dict(admission="token-bucket",
                   admission_params={"rate": 6.0, "burst": 12.0})
    undisturbed = experiment.serve(seed=seed, shards=3, **limited)
    with undisturbed:
        expected = drive(undisturbed, traffic)
        expected_shed = undisturbed.metrics().shed

    service = experiment.serve(seed=seed, shards=3, **limited)
    kill_slot, kill_shard = config.online_slots // 2, 1
    with service:
        actual = drive(service, traffic[:kill_slot])
        service.kill_worker(kill_shard)
        print(f"killed shard {kill_shard}'s worker at slot "
              f"{service.current_slot} "
              f"(alive={service.worker_alive(kill_shard)}); restoring...")
        service.restore_worker(kill_shard)
        actual += drive(service, traffic[kill_slot:])
        shed = service.metrics().shed
    identical = actual == expected
    print(f"restored from the slot-{kill_slot} checkpoint: "
          f"{len(actual)} decisions, identical={identical}, "
          f"shed {shed} vs {expected_shed} undisturbed\n")
    assert identical, "failover diverged from the undisturbed run"
    assert shed == expected_shed > 0, "the spare lost its admission state"

    # -- 4: the K=1 contract ----------------------------------------------
    oracle = experiment.serve(seed=seed)
    baseline = drive(oracle, traffic)
    single = experiment.serve(seed=seed, shards=1)
    with single:
        sharded_k1 = drive(single, traffic)
    print(f"K=1 sharded ≡ unsharded: {sharded_k1 == baseline} "
          f"({len(baseline)} decisions)")
    assert sharded_k1 == baseline


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42,
                        help="scenario and traffic seed (default: 42)")
    main(seed=parser.parse_args().seed)
