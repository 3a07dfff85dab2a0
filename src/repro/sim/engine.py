"""The batch simulation entry points and the result they assemble.

The slot loop itself lives in :mod:`repro.sim.session` —
:func:`simulate` builds a :class:`~repro.sim.session.SimulationSession`
over the full request trace and runs it to the horizon. The semantics (Fig. 2) are unchanged: each slot releases
departures first (OLIVE Algorithm 2 line 5), then applies dynamic
events (if an :class:`~repro.scenarios.events.EventSchedule` is
attached), then processes arrivals in arrival order. Two algorithm
shapes are supported:

* per-request algorithms (OLIVE, QUICKG, FULLG) expose
  ``process(request) → Decision``;
* batch algorithms (SLOTOFF) expose ``run_slot(t, arrivals) → SlotResult``.

Both expose ``release(request)``, ``active_demand()`` and
``active_cost_per_slot()``. Algorithms that support capacity events
additionally expose ``apply_events(t, events, policy) → list[Request]``
(the requests dropped by the disruption policy); workload events (flash
crowds, ingress migrations) need no algorithm support — they transform
the request stream before the run starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.olive import Decision
from repro.workload.request import Request


@dataclass
class SimulationResult:
    """Everything an experiment needs from one simulation run."""

    algorithm_name: str
    num_slots: int
    decisions: list[Decision]
    #: Requests preempted after acceptance, with the slot it happened.
    preemptions: list[tuple[Request, int]]
    #: Per-slot total demand of requests arriving in that slot.
    requested_demand: np.ndarray
    #: Per-slot demand of currently embedded (active) requests.
    allocated_demand: np.ndarray
    #: Per-slot resource cost Σ_s load(s)·cost(s).
    resource_cost: np.ndarray
    #: Wall-clock seconds spent inside the algorithm (runtime metric).
    runtime_seconds: float

    # Derived fields: ``None`` means "compute from the primary fields" —
    # an explicitly passed value (including an empty dict/set or 0) is
    # kept as given, so callers can assert unusual shapes in tests.
    #: request id → Decision, for per-request lookups.
    decision_by_id: dict[int, Decision] | None = None
    #: ids of requests that were preempted after acceptance.
    preempted_ids: set[int] | None = None
    #: Number of requests processed (== len(decisions)).
    num_requests: int | None = None
    #: Accepted requests dropped by a dynamic event's disruption policy,
    #: with the slot it happened. A subset of :attr:`preemptions` — a
    #: disrupted request also counts as preempted (it never completed).
    disruptions: list[tuple[Request, int]] | None = None
    #: ids of requests dropped by dynamic events.
    disrupted_ids: set[int] | None = None
    #: Number of dynamic events the schedule contributed to this run:
    #: capacity events applied slot-by-slot plus workload events
    #: (flash crowds, migrations) consumed when the request stream was
    #: transformed before the run.
    num_events: int = 0

    def __post_init__(self) -> None:
        if self.decision_by_id is None:
            self.decision_by_id = {d.request.id: d for d in self.decisions}
        if self.preempted_ids is None:
            self.preempted_ids = {r.id for r, _ in self.preemptions}
        if self.num_requests is None:
            self.num_requests = len(self.decisions)
        if self.disruptions is None:
            self.disruptions = []
        if self.disrupted_ids is None:
            self.disrupted_ids = {r.id for r, _ in self.disruptions}

    @property
    def slots_per_second(self) -> float:
        """Hot-path throughput in simulated slots per algorithm second.

        0.0 on a run whose recorded runtime is zero (nothing meaningful
        to report) rather than an astronomically large artifact.
        """
        if self.runtime_seconds <= 0.0:
            return 0.0
        return self.num_slots / self.runtime_seconds

    @property
    def requests_per_second(self) -> float:
        """Hot-path throughput in requests per algorithm second.

        0.0 on a run whose recorded runtime is zero, like
        :attr:`slots_per_second`.
        """
        if self.runtime_seconds <= 0.0:
            return 0.0
        return self.num_requests / self.runtime_seconds

    def served(self, request: Request) -> bool:
        """Accepted and never preempted."""
        decision = self.decision_by_id.get(request.id)
        return (
            decision is not None
            and decision.accepted
            and request.id not in self.preempted_ids
        )


def simulate(
    algorithm,
    requests: list[Request],
    num_slots: int,
    events=None,
) -> SimulationResult:
    """Convenience wrapper: run a full-horizon batch simulation.

    ``events`` is an optional
    :class:`~repro.scenarios.events.EventSchedule` the simulation
    consumes slot-by-slot. Use a
    :class:`~repro.sim.session.SimulationSession` directly for
    streaming, ad-hoc submissions, or checkpoint/resume.
    """
    from repro.sim.session import SimulationSession

    return SimulationSession(algorithm, requests, num_slots, events=events).run()
