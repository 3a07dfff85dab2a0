"""The embedding service: a long-running session behind an admission API.

:class:`EmbedderService` wraps one
:class:`~repro.sim.session.SimulationSession` and turns it into the
ROADMAP's long-running embedder serving live traffic:

* ``offer(request) → Decision`` — the synchronous admission API. The
  service advances the session to the request's arrival slot, consults
  its admission policy (shedding costs the algorithm nothing), and
  hands admitted offers to the algorithm mid-slot. Same-slot offers are
  **micro-batched**: they share one open slot — departures, capacity
  events and per-slot accounting are paid once per slot, not once per
  offer. ``offer_many`` takes an explicit list and additionally pays
  the per-offer session plumbing once per slot run, bit-identical to
  sequential offers.
* ``schedule(request) → bool`` — enqueue a future arrival, subject to
  the ``max_pending`` queue bound (backpressure: a full queue sheds
  instead of growing without limit).
* ``tick()`` / ``advance_to(t)`` — progress simulated time when no
  traffic forces it (idle slots still release departures and apply
  events).
* ``metrics`` — a :class:`~repro.serve.metrics.MetricsStream` fed on
  every offer and every closed slot; subscribe to watch acceptance
  rate, utilization and decision-latency percentiles live.
* ``snapshot()`` / ``restore(snapshot)`` — the service is the checkpoint
  unit: session, admission state, ``max_pending`` and the metrics
  counters ride one pickle, so a resumed service (or a shard worker
  booted from the bytes) sheds and decides as if it had never stopped.

The service requires a per-request algorithm (OLIVE, QUICKG, FULLG, or
anything registered with ``process()``); batch algorithms (SLOTOFF)
solve whole slots at once and cannot answer an offer synchronously.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from typing import Any

from repro.core.olive import Decision
from repro.errors import SimulationError
from repro.registry import admission_policy_registry
from repro.serve.admission import AdmissionPolicy
from repro.serve.metrics import MetricsStream, ServiceMetrics
from repro.sim.engine import SimulationResult
from repro.sim.session import (
    SessionSnapshot,
    SimulationSession,
    SlotReport,
    dump_checkpoint,
    load_checkpoint,
)
from repro.workload.request import Request


class EmbedderService:
    """One embedding algorithm served behind admission control.

    ``admission`` is a registered policy name (resolved through
    :data:`repro.registry.admission_policy_registry` with
    ``admission_params`` as factory kwargs) or an
    :class:`~repro.serve.admission.AdmissionPolicy` instance.
    ``max_pending`` bounds the scheduled-arrival queue consumed by
    :meth:`schedule` (None = unbounded).
    """

    def __init__(
        self,
        session: SimulationSession,
        admission: "str | AdmissionPolicy" = "always",
        admission_params: dict | None = None,
        max_pending: int | None = None,
        metrics_window: int = 512,
        scenario: Any = None,
    ) -> None:
        if not isinstance(session, SimulationSession):
            raise SimulationError(
                "EmbedderService wraps a SimulationSession "
                f"(got {type(session).__name__}); build one with "
                "Experiment.serve() or SimulationSession(...)"
            )
        if not session.supports_streaming:
            raise SimulationError(
                f"algorithm {session.algorithm.name!r} solves whole slots "
                "at once (batch shape) and cannot answer offers "
                "synchronously; serve a per-request algorithm instead"
            )
        if isinstance(admission, str):
            admission = admission_policy_registry.create(
                admission, **(admission_params or {})
            )
        elif admission_params:
            raise SimulationError(
                "admission_params only apply when admission is a "
                "registered policy name; configure the policy instance "
                "directly instead"
            )
        if not isinstance(admission, AdmissionPolicy):
            raise SimulationError(
                "admission must be a registered policy name or an "
                f"AdmissionPolicy (got {type(admission).__name__})"
            )
        if max_pending is not None and max_pending < 1:
            raise SimulationError(
                f"max_pending must be >= 1 or None (got {max_pending})"
            )
        self.session = session
        self.admission = admission
        self.max_pending = max_pending
        self.metrics = MetricsStream(window=metrics_window)
        #: The scenario the session was built from, when known
        #: (``Experiment.serve`` sets it) — handy context for traffic
        #: generators (substrate nodes, applications); never read by the
        #: service itself.
        self.scenario = scenario
        #: Recent shed offers as ``(request id, slot, reason)`` — a small
        #: debugging window, not an unbounded log.
        self.recent_shed: deque[tuple[int, int, str]] = deque(maxlen=64)

    # -- introspection -------------------------------------------------------

    @property
    def algorithm(self) -> Any:
        return self.session.algorithm

    @property
    def current_slot(self) -> int:
        """The slot the service is currently in (the session clock)."""
        return self.session.clock

    @property
    def horizon(self) -> int:
        return self.session.num_slots

    @property
    def is_done(self) -> bool:
        return self.session.is_done

    @property
    def pending_count(self) -> int:
        """Scheduled arrivals not yet handed to the algorithm."""
        return self.session.pending_arrivals

    def utilization(self) -> float:
        """Mean substrate node utilization in [0, 1].

        Derived from the algorithm's residual state (effective capacity
        minus active allocations); 0.0 for algorithms without one.
        """
        residual = getattr(self.session.algorithm, "residual", None)
        if residual is None:
            return 0.0
        total = sum(residual.node_capacity)
        if total <= 0:
            return 0.0
        return max(0.0, 1.0 - sum(residual.node_residual) / total)

    # -- the admission API ---------------------------------------------------

    def offer(self, request: Request) -> Decision:
        """Offer one arrival; return the decision synchronously.

        The request's arrival slot must not lie in the past; offering
        for a future slot first drains the slots in between (their
        departures and events happen on the way). Offers shed by the
        admission policy return ``Decision(accepted=False)`` without the
        algorithm ever seeing them — they are visible in
        :attr:`metrics` (``shed``) and :attr:`recent_shed`, not in the
        session's decision log.
        """
        self._ensure_slot(request)
        # Latency is measured from here: slot drains on the way to a
        # future arrival (departures, events, preloaded-trace work) are
        # simulated-time progress, not part of this offer's decision.
        start = time.perf_counter()  # repro-lint: allow[RPR003] decision-latency telemetry (MetricsStream p50/p99); never reaches results or goldens
        if self._decide(request) is not None:
            return Decision(request=request, accepted=False)
        decision = self.session.process(request)
        self.metrics.record_offer(
            decision.accepted,
            time.perf_counter() - start,  # repro-lint: allow[RPR003] decision-latency telemetry (MetricsStream p50/p99); never reaches results or goldens
        )
        return decision

    def offer_many(self, requests: list[Request]) -> list[Decision]:
        """Offer a run of arrivals, coalesced per slot — the batched API.

        **Decision-equivalent to calling** :meth:`offer` **per request in
        order** (the serve test tier asserts bit-identity): arrivals must
        be non-decreasing, each slot's run shares one open slot, the
        admission policy is consulted per request at exactly the point
        its sequential offer would have been, and admitted requests
        commit in order through
        :meth:`~repro.sim.session.SimulationSession.process_many`, the
        session-level bulk path. What changes is only the per-offer
        overhead: slot bookkeeping, timing and metrics are paid once per
        run, and each admitted offer records the run's amortized
        per-offer latency instead of an individually timed one.
        """
        decisions: list[Decision] = []
        # The stateless admit-everything base policy can never shed, so
        # the per-request admission callback (and its call overhead in
        # the session loop) is skipped entirely — any subclass, stateful
        # or not, keeps the exact sequential consultation order.
        decide = (
            None if type(self.admission) is AdmissionPolicy else self._decide
        )
        total = len(requests)
        i = 0
        while i < total:
            j = i + 1
            arrival = requests[i].arrival
            while j < total and requests[j].arrival == arrival:
                j += 1
            run = requests[i:j]
            self._ensure_slot(run[0])
            start = time.perf_counter()  # repro-lint: allow[RPR003] decision-latency telemetry (MetricsStream p50/p99); never reaches results or goldens
            outcomes = self.session.process_many(run, decide=decide)
            latency = (
                time.perf_counter() - start  # repro-lint: allow[RPR003] decision-latency telemetry (MetricsStream p50/p99); never reaches results or goldens
            ) / len(run)
            settled = [o for o in outcomes if o is not None]
            if len(settled) == len(outcomes):
                self.metrics.record_offers(
                    [outcome.accepted for outcome in settled], latency
                )
                decisions.extend(settled)
            else:
                for request, outcome in zip(run, outcomes):
                    if outcome is None:
                        # Shed by admission; _decide already recorded it.
                        decisions.append(
                            Decision(request=request, accepted=False)
                        )
                    else:
                        self.metrics.record_offer(outcome.accepted, latency)
                        decisions.append(outcome)
            i = j
        return decisions

    def schedule(self, request: Request) -> bool:
        """Enqueue a future arrival; False when backpressure sheds it.

        The queue is the session's pending-arrival set; ``max_pending``
        bounds it. A shed schedule costs the algorithm nothing and is
        counted in :attr:`metrics` like a shed offer.
        """
        if self.max_pending is not None and (
            self.pending_count >= self.max_pending
        ):
            self.recent_shed.append(
                (request.id, request.arrival,
                 f"backpressure ({self.max_pending} pending)")
            )
            self.metrics.record_shed()
            return False
        self.session.submit(request)
        return True

    # -- time ----------------------------------------------------------------

    def tick(self) -> SlotReport:
        """Advance one slot: close the open slot, or run the next one."""
        if not self.session.slot_open:
            self.session.begin_slot()
        return self._close_slot()

    def advance_to(self, slot: int) -> list[SlotReport]:
        """Drain every slot before ``slot``; returns their reports."""
        if slot > self.horizon:
            raise SimulationError(
                f"advance_to({slot}) exceeds the {self.horizon}-slot horizon"
            )
        reports: list[SlotReport] = []
        if self.session.slot_open and self.session.clock < slot:
            reports.append(self._close_slot())
        while self.session.clock < slot:
            self.session.begin_slot()
            reports.append(self._close_slot())
        return reports

    def finish(self) -> SimulationResult:
        """Drain the full horizon and return the final result."""
        self.advance_to(self.horizon)
        return self.session.result()

    def result(self) -> SimulationResult:
        """The accumulated result so far (see ``SimulationSession.result``)."""
        return self.session.result()

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> SessionSnapshot:
        """Checkpoint the service (slot boundaries only).

        One pickle of the service's durable state, held as bytes (see
        :class:`~repro.sim.session.SessionSnapshot`): the session, the
        admission policy instance with whatever state it keeps,
        ``max_pending``, :attr:`recent_shed` and the metrics counters
        and windows. Process wiring stays behind — metrics subscribers
        and :attr:`scenario` — so :meth:`restore` resumes deciding
        exactly where this service stood and notifies nobody.
        """
        try:
            pickle.dumps(self.admission)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise SimulationError(
                f"admission policy {type(self.admission).__name__} cannot "
                "be checkpointed: its state rides the service snapshot and "
                f"does not pickle ({type(error).__name__}: {error})"
            ) from error
        return dump_checkpoint(self, self.session)

    @classmethod
    def restore(cls, snapshot: SessionSnapshot) -> "EmbedderService":
        """The service resumed from one of its own snapshots."""
        return load_checkpoint(snapshot, cls)

    def __getstate__(self) -> dict:
        # The scenario is context for traffic generators in the process
        # that built it; the service never reads it.
        return {**self.__dict__, "scenario": None}

    # -- internals -----------------------------------------------------------

    def _decide(self, request: Request) -> str | None:
        """Consult admission for one offer; record and return a shed reason.

        ``None`` means admitted. Shared by :meth:`offer` and (as the
        per-request callback threaded into ``session.process_many``) by
        :meth:`offer_many`, so stateful policies observe the exact same
        call sequence on both paths.
        """
        reason = self.admission.decide(request, self)
        if reason is not None:
            self.recent_shed.append((request.id, request.arrival, reason))
            self.metrics.record_shed()
        return reason

    def _ensure_slot(self, request: Request) -> None:
        """Advance to the request's arrival slot and open it."""
        session = self.session
        if session.is_done:
            raise SimulationError(
                f"the service's {self.horizon}-slot horizon has ended"
            )
        if request.arrival >= self.horizon:
            raise SimulationError(
                f"request {request.id} arrives at {request.arrival}, "
                f"beyond the {self.horizon}-slot horizon"
            )
        if request.arrival < session.clock:
            raise SimulationError(
                f"request {request.id} arrives at {request.arrival}, but "
                f"the service is already at slot {session.clock}"
            )
        if request.arrival > session.clock:
            self.advance_to(request.arrival)
        if not session.slot_open:
            session.begin_slot()

    def _close_slot(self) -> SlotReport:
        report = self.session.close_slot()
        self.metrics.record_slot(report)
        self.metrics.emit(
            self.session.clock, self.utilization(), self.pending_count
        )
        return report

    def __repr__(self) -> str:
        return (
            f"EmbedderService({self.session.algorithm.name!r}, "
            f"slot {self.current_slot}/{self.horizon}, "
            f"admission={self.admission!r}, "
            f"{self.pending_count} pending)"
        )


__all__ = ["EmbedderService", "MetricsStream", "ServiceMetrics"]
