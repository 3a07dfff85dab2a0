#!/usr/bin/env python3
"""A live embedding service: streaming sessions + admission control.

The batch experiments replay a whole trace and report afterwards; this
example runs the ROADMAP north-star instead — a long-lived
`EmbedderService` (OLIVE behind a pluggable admission policy) fed by a
generated Poisson arrival process, one slot at a time:

1. stand the service up with `Experiment(...).serve(...)`;
2. stream synthetic offers into `service.offer(request)` and watch the
   rolling metrics (acceptance rate, utilization, decision-latency
   percentiles) the `MetricsStream` publishes after every slot;
3. checkpoint a rate-limited service mid-run with `service.snapshot()`,
   keep serving, then `EmbedderService.restore(checkpoint)` and replay
   the identical tail — decisions *and* shed count match bit-for-bit,
   because the token bucket's level rides the checkpoint; that is what
   makes checkpoints safe for failover;
4. compare admission policies on the same traffic: a token-bucket
   rate limiter sheds load before the algorithm spends any work on it.

Run:  python examples/streaming_service.py [--seed N]
"""

import argparse

from repro import Experiment, ExperimentConfig
from repro.serve import EmbedderService, poisson_offers
from repro.utils.rng import child_rng, make_rng


def drive(service, traffic) -> list:
    """Offer every batch, advancing the service clock slot by slot."""
    decisions = []
    for slot, batch in traffic:
        for request in batch:
            decisions.append(service.offer(request))
        service.advance_to(slot + 1)
    return decisions


def main(seed: int = 42) -> None:
    config = ExperimentConfig.test(
        utilization=1.2, online_slots=40, measure_start=5, measure_stop=35,
        base_seed=seed,
    )
    experiment = Experiment(config).algorithms("OLIVE")

    # -- 1+2: a served horizon with live rolling metrics -------------------
    service = experiment.serve(seed=seed, admission="queue-bound",
                               admission_params={"max_pending": 64})
    service.metrics.subscribe(
        lambda m: print(f"  {m.describe()}") if m.slot % 10 == 0 else None
    )
    rng = child_rng(make_rng(seed), "traffic")
    drive(service, poisson_offers(service.scenario, config.online_slots, rng))
    result = service.finish()
    print(f"service done: {result.num_requests} requests, "
          f"{result.runtime_seconds:.3f}s algorithm time "
          f"({result.requests_per_second:.0f} req/s)\n")

    # -- 3: checkpoint, keep serving, restore, replay ----------------------
    service = experiment.serve(seed=seed, admission="token-bucket",
                               admission_params={"rate": 6.0, "burst": 12.0})
    rng = child_rng(make_rng(seed), "traffic")   # same traffic again
    traffic = list(poisson_offers(service.scenario, config.online_slots, rng))
    drive(service, traffic[:20])
    checkpoint = service.snapshot()              # taken at slot 20
    tail = drive(service, traffic[20:])          # keep serving the tail

    resumed = EmbedderService.restore(checkpoint)  # admission state included
    replayed = drive(resumed, traffic[20:])
    identical = replayed == tail
    shed, replayed_shed = service.metrics.shed, resumed.metrics.shed
    print(f"checkpoint at slot {checkpoint.clock}: replayed "
          f"{len(replayed)} tail decisions, identical={identical}, "
          f"shed {replayed_shed} vs {shed} live\n")
    assert identical, "checkpoint replay diverged from the live run"
    assert replayed_shed == shed > 0, "the restored bucket lost its state"

    # -- 4: admission policies shape the same traffic ----------------------
    print("same traffic under different admission policies:")
    for admission, params in (
        ("always", {}),
        ("token-bucket", {"rate": 6.0, "burst": 12.0}),
        ("utilization-guard", {"threshold": 0.10}),
    ):
        service = experiment.serve(seed=seed, admission=admission,
                                   admission_params=params)
        rng = child_rng(make_rng(seed), "traffic")
        drive(service, poisson_offers(service.scenario,
                                      config.online_slots, rng))
        service.finish()
        metrics = service.metrics.latest
        label = admission + (f" {params}" if params else "")
        print(f"  {label:<45} accepted={metrics.accepted:4d}  "
              f"shed={metrics.shed:4d}  util={metrics.utilization:.1%}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42,
                        help="scenario and traffic seed (default: 42)")
    main(seed=parser.parse_args().seed)
