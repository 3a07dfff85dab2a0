"""The sharded serving tier: partition → route → two-phase commit.

A single :class:`~repro.serve.EmbedderService` is bounded by one core:
every offer runs the embedding algorithm over the whole substrate in
the serving process. This package scales the service *out* instead of
up, in three layers:

* :mod:`repro.shard.partition` cuts the substrate into K connected
  region shards via a registered, seeded, deterministic policy
  (``shard_policy_registry``: ``kbalanced``, ``tier-aware``), classifies
  every link as intra-shard or boundary, and materializes one
  sub-substrate per shard plus a capacity ledger over the boundary
  links;
* :mod:`repro.shard.worker` runs one
  :class:`~repro.serve.EmbedderService` per shard — inline for
  deterministic tests, or in a child process for real parallelism —
  booted from and checkpointed to the service's own snapshot bytes
  (:class:`~repro.sim.session.SessionSnapshot`, the pickle-certified
  boundary), so a killed worker restores on a spare bit-identically,
  admission state included;
* :mod:`repro.shard.frontend` exposes
  :class:`~repro.shard.frontend.ShardedEmbedderService`, mirroring the
  ``offer``/``offer_many``/``tick``/``finish`` surface of the unsharded
  service, routing each request to its ingress shard and resolving
  home-shard rejections through a two-phase reserve→commit/abort
  protocol on the boundary ledger.

At ``num_shards=1`` the sharded service is bit-identical to the
unsharded :class:`~repro.serve.EmbedderService` — the shard test tier
and ``benchmarks/test_bench_shard.py`` assert this decision identity
(the bench records the K=1 / unsharded throughput ratio, it gates none).
"""

from repro.registry import register_shard_policy, shard_policy_registry
from repro.shard.frontend import ShardedEmbedderService, ShardedRunResult
from repro.shard.partition import (
    BoundaryLedger,
    ShardRegion,
    SubstratePartition,
    partition_substrate,
    restrict_plan,
)
from repro.shard.worker import InlineShardWorker, ProcessShardWorker

__all__ = [
    "BoundaryLedger",
    "InlineShardWorker",
    "ProcessShardWorker",
    "ShardRegion",
    "ShardedEmbedderService",
    "ShardedRunResult",
    "SubstratePartition",
    "partition_substrate",
    "register_shard_policy",
    "restrict_plan",
    "shard_policy_registry",
]
