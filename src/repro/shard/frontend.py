"""`ShardedEmbedderService`: the routing frontend over K shard workers.

The frontend mirrors the :class:`~repro.serve.EmbedderService` surface
(``offer`` / ``offer_many`` / ``tick`` / ``advance_to`` / ``finish`` /
``metrics``) while the embedding work happens in per-shard workers:

1. **Route.** Every request homes to the shard owning its ingress node.
   A slot's batch is split into per-shard sub-batches, broadcast to all
   involved workers, and collected afterwards — with process workers
   the K shard computations overlap on K cores.
2. **Two-phase cross-shard resolve.** A request its home shard rejects
   is retried, in offer order, against the home's neighbor shards in
   ascending shard id: the frontend *reserves* the crossing load on the
   best boundary link (phase one), re-homes the request to the link's
   remote endpoint and offers it there; a remote accept *commits* the
   reservation until the request departs, a reject *aborts* it and the
   next neighbor is tried. All tie-breaking is deterministic (link
   preference: ingress-adjacent first, then cheaper, then insertion
   order), so a run is reproducible at any worker count and for either
   worker kind.
3. **Checkpoint / failover.** Every worker is checkpointed at every
   slot boundary (``checkpoint_every``); :meth:`kill_worker` +
   :meth:`restore_worker` replace a dead worker with a spare booted
   from its latest checkpoint, bit-identically to a worker that never
   died. A checkpoint is the worker's service snapshot — one pickle of
   session, admission state and metrics counters; the frontend keeps
   the bytes and reads only their header.

Fidelity notes, deliberate and documented:

* The crossing load charged to a boundary link is the request's
  root-incident virtual-link load (demand × β × η for every virtual
  link leaving θ) — exact for collocated embeddings (QUICKG's, and the
  vast majority of OLIVE's); the home-side path segment from the
  ingress to the boundary link is not charged (the home shard rejected
  the request, so its intra-shard capacity is untouched by design).
* Per-shard sessions are independent: a shard's ``SimulationResult``
  is its local view (a cross-shard request appears as a home rejection
  *and* a remote acceptance). :attr:`ShardedRunResult.decisions` — the
  frontend's log, one final decision per offer in offer order — is the
  authoritative stream, and at ``num_shards=1`` it is bit-identical to
  the unsharded service's.
* Dynamic event schedules address the whole substrate and are not yet
  partitioned; serving with ``events`` attached raises.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.apps.application import ROOT_ID
from repro.core.olive import Decision
from repro.errors import ShardError, SimulationError
from repro.registry import algorithm_registry
from repro.serve.metrics import MetricsStream, ServiceMetrics
from repro.serve.service import EmbedderService, slot_runs
from repro.shard.partition import (
    SubstratePartition,
    partition_substrate,
    restrict_plan,
)
from repro.shard.worker import (
    InlineShardWorker,
    ProcessShardWorker,
    read_checkpoint,
)
from repro.sim.engine import SimulationResult
from repro.sim.session import SimulationSession
from repro.substrate.network import LinkId, NodeId
from repro.utils.fold import left_sum
from repro.workload.request import Request


@dataclass(frozen=True)
class ShardedRunResult:
    """What a sharded horizon produced.

    ``decisions`` is the frontend's authoritative stream (one final
    decision per offer, in offer order — cross-shard accepts replace
    their home rejections); ``per_shard`` holds each worker's local
    :class:`~repro.sim.engine.SimulationResult`.
    """

    decisions: tuple[Decision, ...]
    per_shard: tuple[SimulationResult, ...]
    cross_shard: dict

    @property
    def num_offers(self) -> int:
        return len(self.decisions)

    @property
    def num_accepted(self) -> int:
        return sum(1 for d in self.decisions if d.accepted)

    @property
    def acceptance_rate(self) -> float:
        return self.num_accepted / self.num_offers if self.decisions else 1.0


class ShardedEmbedderService:
    """K shard workers behind one ``EmbedderService``-shaped frontend.

    ``workers`` selects the worker kind: ``"process"`` (child processes
    — real parallelism, the default) or ``"inline"`` (in this process —
    zero IPC, for deterministic tests and debugging). Both are
    decision-identical. ``checkpoint_every`` checkpoints every worker
    at every N-th slot boundary (0 disables; disable for pure
    throughput benchmarking). A request its home shard rejects gets
    one two-phase retry on the neighbouring shards.
    """

    def __init__(
        self,
        scenario: Any,
        algorithm: str,
        num_shards: int,
        shard_policy: str = "kbalanced",
        workers: str = "process",
        admission: str = "always",
        admission_params: dict | None = None,
        metrics_window: int = 512,
        checkpoint_every: int = 1,
    ) -> None:
        if workers not in ("process", "inline"):
            raise ShardError(
                f"workers must be 'process' or 'inline' (got {workers!r})"
            )
        if checkpoint_every < 0:
            raise ShardError(
                f"checkpoint_every must be >= 0 (got {checkpoint_every})"
            )
        if not isinstance(admission, str):
            raise ShardError(
                "a sharded service ships its admission policy to worker "
                "processes by registry name; pass a registered name (got "
                f"{type(admission).__name__})"
            )
        algorithm_registry.get(algorithm)  # fail fast on unknown names
        self.scenario = scenario
        self.algorithm_name = algorithm
        self.horizon = int(scenario.config.online_slots)
        self.partition: SubstratePartition = partition_substrate(
            scenario.substrate,
            num_shards,
            policy=shard_policy,
            seed=scenario.seed,
        )
        self.ledger = self.partition.make_ledger()
        self.checkpoint_every = checkpoint_every
        self._worker_kind = workers
        self._clock = 0
        self._decisions: list[Decision] = []
        self._offered_in_slot: set[int] = set()
        self._cross_log: list[dict] = []
        self._cross_attempts = 0
        self._cross_commits = 0
        self._cross_aborts = 0
        self._closed = False

        # Root-incident virtual links per application — the β sizes a
        # collocated remote embedding routes over the boundary link.
        self._root_vlinks = [
            tuple(vl for vl in app.links if vl.tail == ROOT_ID)
            for app in scenario.apps
        ]

        self._checkpoints: list[bytes] = []
        self._workers: list[Any] = []
        for region in self.partition.shards:
            service = EmbedderService(
                self._shard_session(region),
                admission=admission,
                admission_params=admission_params,
                metrics_window=metrics_window,
            )
            self._checkpoints.append(service.snapshot().to_bytes())
            self._workers.append(self._spawn(region.shard_id))

    def _shard_session(self, region) -> SimulationSession:
        """Shard ``region``'s empty session at slot 0.

        The shard scenario swaps in the region's sub-substrate and the
        plan slice it can use; the algorithm then comes from the same
        registry factory the unsharded service uses, so a whole-
        substrate shard (K=1) instantiates a bit-identical algorithm.
        """
        shard_scenario = dataclasses.replace(
            self.scenario,
            substrate=region.substrate,
            plan=restrict_plan(self.scenario.plan, region.substrate),
        )
        return SimulationSession(
            algorithm_registry.create(self.algorithm_name, shard_scenario),
            (),
            self.horizon,
        )

    def _spawn(self, shard: int):
        """A worker booted from shard ``shard``'s latest checkpoint."""
        worker = (
            ProcessShardWorker
            if self._worker_kind == "process"
            else InlineShardWorker
        )
        return worker(shard, self._checkpoints[shard])

    # -- introspection -------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.partition.num_shards

    @property
    def current_slot(self) -> int:
        return self._clock

    @property
    def is_done(self) -> bool:
        return self._clock >= self.horizon

    @property
    def decisions(self) -> tuple[Decision, ...]:
        """The authoritative decision stream so far (offer order)."""
        return tuple(self._decisions)

    def shard_of(self, node: NodeId) -> int:
        """Which shard serves offers ingressing at ``node``."""
        return self.partition.shard_of(node)

    # -- the admission API ---------------------------------------------------

    def offer(self, request: Request) -> Decision:
        """Offer one arrival; the sharded analogue of ``offer()``."""
        return self._offer_run([request])[0]

    def offer_many(self, requests: list[Request]) -> list[Decision]:
        """Offer a run of arrivals, coalesced per slot and per shard."""
        decisions: list[Decision] = []
        for run in slot_runs(requests):
            decisions.extend(self._offer_run(run))
        return decisions

    def _offer_run(self, run: list[Request]) -> list[Decision]:
        """One same-slot run: route, collect, cross-shard resolve, log."""
        self._require_open()
        arrival = run[0].arrival
        if arrival >= self.horizon:
            raise SimulationError(
                f"request {run[0].id} arrives at {arrival}, beyond the "
                f"{self.horizon}-slot horizon"
            )
        if arrival < self._clock:
            raise SimulationError(
                f"request {run[0].id} arrives at {arrival}, but the "
                f"service is already at slot {self._clock}"
            )
        if arrival > self._clock:
            self.advance_to(arrival)

        # Phase: route home. Sub-batches preserve offer order within a
        # shard; the broadcast/collect split lets process workers embed
        # their sub-batches concurrently.
        by_shard: dict[int, list[int]] = {}
        for index, request in enumerate(run):
            by_shard.setdefault(
                self.partition.shard_of(request.ingress), []
            ).append(index)
        involved = sorted(by_shard)
        replies = self._exchange([
            (shard, "offer_run", ([run[i] for i in by_shard[shard]],))
            for shard in involved
        ])
        decisions: list[Decision | None] = [None] * len(run)
        for shard, reply in zip(involved, replies):
            for index, decision in zip(by_shard[shard], reply):
                decisions[index] = decision

        # Phase: two-phase cross-shard resolve, in offer order.
        if self.num_shards > 1:
            for index, decision in enumerate(decisions):
                if decision.accepted:
                    continue
                resolved = self._resolve_cross_shard(run[index])
                if resolved is not None:
                    decisions[index] = resolved
        self._decisions.extend(decisions)
        return list(decisions)

    def _crossing_load(self, request: Request, link_attrs) -> float:
        """Boundary capacity a re-homed request occupies on one link."""
        efficiency = self.scenario.efficiency
        return left_sum(
            request.demand * vlink.size * efficiency.link_eta(
                vlink, link_attrs
            )
            for vlink in self._root_vlinks[request.app_index]
        )

    def _resolve_cross_shard(self, request: Request) -> "Decision | None":
        """Try the home shard's neighbors through the boundary ledger.

        One gateway attempt per neighbor shard, neighbors in ascending
        shard id; the gateway is the remote endpoint of the best
        reservable boundary link (ingress-adjacent beats cheaper beats
        earlier-inserted). Returns the remote accept rewritten onto the
        original request, or None when every neighbor rejects or no
        boundary capacity fits.
        """
        home = self.partition.shard_of(request.ingress)
        assignment = self.partition.assignment
        for remote in self.partition.neighbor_shards(home):
            candidate: "tuple[tuple, LinkId, float, str] | None" = None
            for link in self.partition.boundary_between(home, remote):
                attrs = self.partition.source.links[link]
                load = self._crossing_load(request, attrs)
                if load > self.ledger.residual(link):
                    continue
                home_end = (
                    link[0] if assignment[link[0]] == home else link[1]
                )
                gateway = link[1] if home_end == link[0] else link[0]
                rank = (
                    0 if home_end == request.ingress else 1,
                    attrs.cost,
                    link,
                )
                if candidate is None or rank < candidate[0]:
                    candidate = (rank, link, load, gateway)
            if candidate is None:
                continue
            _, link, load, gateway = candidate
            token = (
                self.ledger.try_reserve(link, load) if load > 0 else None
            )
            if load > 0 and token is None:  # pragma: no cover - raced above
                continue
            twin = Request.trusted(
                arrival=request.arrival,
                id=request.id,
                app_index=request.app_index,
                ingress=gateway,
                demand=request.demand,
                duration=request.duration,
            )
            self._cross_attempts += 1
            outcome = self._exchange([(remote, "offer_run", ([twin],))])[0][0]
            if outcome.accepted:
                if token is not None:
                    self.ledger.commit(token, request.departure)
                self._cross_commits += 1
                self._cross_log.append(
                    {
                        "request": request.id,
                        "home": home,
                        "remote": remote,
                        "link": link,
                        "load": load,
                        "slot": request.arrival,
                    }
                )
                return dataclasses.replace(outcome, request=request)
            if token is not None:
                self.ledger.abort(token)
            self._cross_aborts += 1
        return None

    # -- time ----------------------------------------------------------------

    def tick(self) -> None:
        """Advance one slot on every worker (and the boundary ledger)."""
        self.advance_to(self._clock + 1)

    def advance_to(self, slot: int) -> None:
        """Drain every slot before ``slot`` in lockstep across shards."""
        self._require_open()
        if slot > self.horizon:
            raise SimulationError(
                f"advance_to({slot}) exceeds the {self.horizon}-slot horizon"
            )
        while self._clock < slot:
            new_clock = self._clock + 1
            self._broadcast("advance_to", new_clock)
            self.ledger.advance(new_clock)
            self._clock = new_clock
            self._offered_in_slot.clear()
            if self.checkpoint_every and (
                new_clock % self.checkpoint_every == 0
            ):
                self.checkpoint_workers()

    def finish(self) -> ShardedRunResult:
        """Drain the full horizon and assemble the sharded result."""
        self.advance_to(self.horizon)
        per_shard = tuple(self._broadcast("result"))
        return ShardedRunResult(
            decisions=tuple(self._decisions),
            per_shard=per_shard,
            cross_shard=self.cross_shard_stats(),
        )

    def cross_shard_stats(self) -> dict:
        """Two-phase protocol counters plus the ledger's account."""
        return {
            "attempts": self._cross_attempts,
            "commits": self._cross_commits,
            "aborts": self._cross_aborts,
            "ledger_reserved": self.ledger.reserved,
            "ledger_committed": self.ledger.committed,
            "ledger_aborted": self.ledger.aborted,
            "ledger_released": self.ledger.released,
            "routes": list(self._cross_log),
        }

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> ServiceMetrics:
        """Merged per-shard metrics as one :class:`ServiceMetrics`.

        Cumulative counters (offers, accepted, rejected, shed,
        disrupted) are exact sums. Utilization is the capacity-weighted
        mean of shard utilizations — exact for node capacity. The
        rolling acceptance rate and the latency percentiles merge the
        shards' bounded windows; because each shard's window is bounded
        separately, the merged percentile is an **approximation** of
        what one global window would hold (exact while total traffic
        fits the windows).
        """
        self._require_open()
        streams, utilizations, pending = zip(*self._broadcast("metrics"))
        total_capacity = sum(r.capacity for r in self.partition.shards)
        utilization = (
            sum(
                shard_utilization * region.capacity
                for shard_utilization, region in zip(
                    utilizations, self.partition.shards
                )
            )
            / total_capacity
            if total_capacity
            else 0.0
        )
        return MetricsStream.merged(streams).snapshot(
            self._clock, utilization, sum(pending)
        )

    # -- checkpointing / failover --------------------------------------------

    def checkpoint_workers(self) -> None:
        """Checkpoint every worker now (slot boundaries only)."""
        self._checkpoints[:] = self._broadcast("checkpoint")

    def kill_worker(self, shard: int) -> None:
        """Hard-kill one worker (fault injection; process workers only)."""
        self._workers[shard].kill()

    def restore_worker(self, shard: int) -> None:
        """Boot a spare from shard ``shard``'s latest checkpoint.

        Valid at the slot boundary the checkpoint was taken at, before
        the shard received any offer in the current slot — exactly the
        states per-slot checkpointing guarantees exist. The spare is
        bit-identical to the worker that died.
        """
        checkpoint = read_checkpoint(shard, self._checkpoints[shard])
        if checkpoint.clock != self._clock:
            raise ShardError(
                f"shard {shard}'s latest checkpoint is at slot "
                f"{checkpoint.clock}, but the service clock is at "
                f"{self._clock}; restore only at the checkpointed boundary"
            )
        if shard in self._offered_in_slot:
            raise ShardError(
                f"shard {shard} already took offers in slot {self._clock}; "
                "restoring its boundary checkpoint would drop them"
            )
        old = self._workers[shard]
        if old.alive:
            old.close()
        self._workers[shard] = self._spawn(shard)

    def worker_alive(self, shard: int) -> bool:
        return self._workers[shard].alive

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.close()
            except ShardError:  # pragma: no cover - defensive reap
                pass

    def __enter__(self) -> "ShardedEmbedderService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _broadcast(self, command: str, *args: Any) -> list[Any]:
        """``command`` to every worker; the replies, in shard order."""
        return self._exchange(
            [(shard, command, args) for shard in range(self.num_shards)]
        )

    def _exchange(self, calls: list[tuple[int, str, tuple]]) -> list[Any]:
        """Send each ``(shard, command, args)``, then read every reply.

        The one way the frontend talks to workers. Sending first and
        collecting afterwards is what lets process workers overlap. Every
        worker that took its command is read before anything is raised —
        a reply left in a pipe (or in an inline worker's queue) would be
        taken for the answer to the *next* command, and so would every
        one after it. A worker that refuses the send ends the sending;
        then the first failure, in call order, is raised. A shard that
        took an ``offer_run`` has offers in the open slot from then on.
        """
        refused: list[Exception] = []
        sent = []
        for shard, command, args in calls:
            worker = self._workers[shard]
            try:
                worker.send(command, *args)
            except Exception as error:  # raised below, after the reads
                refused.append(error)
                break
            sent.append(worker)
            if command == "offer_run":
                self._offered_in_slot.add(shard)
        replies: list[Any] = []
        failed: list[Exception] = []
        for worker in sent:
            try:
                replies.append(worker.recv())
            except Exception as error:  # raised below, after the reads
                failed.append(error)
        for error in failed + refused:
            raise error
        return replies

    def _require_open(self) -> None:
        if self._closed:
            raise ShardError("the sharded service has been closed")

    def __repr__(self) -> str:
        return (
            f"ShardedEmbedderService({self.algorithm_name!r}, "
            f"{self.num_shards} shards [{self.partition.policy}], "
            f"slot {self._clock}/{self.horizon}, "
            f"workers={self._worker_kind!r})"
        )


__all__ = ["ShardedEmbedderService", "ShardedRunResult"]
