"""The ledger every per-request embedder keeps: residual + active allocations.

The paper has one ALLOCATE step (Algorithm 2, lines 18–22) and one
departure step; the per-request embedders it compares (OLIVE, QUICKG,
FULLG — Sec. IV-A) differ only in *how a request is embedded*.
:class:`LedgerAlgorithm` is that shared bookkeeping, written once; a
subclass supplies :meth:`LedgerAlgorithm._embed` and nothing else (OLIVE
puts its plan draw, borrowing and preemption in front of it).

Subclassing is a convenience, not the contract: the session and the
service duck-type (``process`` + ``release`` + the two per-slot sums,
optionally ``apply_events`` / ``on_slot``), so a registered third-party
algorithm need not inherit from anything.
"""

from __future__ import annotations

import pickle
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel, UniformEfficiency
from repro.core.embedding import ElementLoads, Embedding
from repro.core.residual import ResidualState
from repro.errors import SimulationError
from repro.substrate.network import SubstrateNetwork
from repro.workload.request import Request


@dataclass(frozen=True)
class Decision:
    """Outcome of processing one request."""

    request: Request
    accepted: bool
    planned: bool = False
    borrowed: bool = False
    via_greedy: bool = False
    embedding: Embedding | None = None
    cost_per_slot: float = 0.0
    preempted: tuple[Request, ...] = ()


@dataclass(slots=True)
class _ActiveAllocation:
    """Book-keeping for one active (embedded) request."""

    request: Request
    embedding: Embedding
    loads: ElementLoads
    cost_per_slot: float
    planned: bool
    pattern_index: int | None
    #: The four write-once fields (all but ``planned`` / ``pattern_index``)
    #: pickled, by the first checkpoint that saw this row.
    sealed: bytes | None = field(default=None, compare=False, repr=False)


class LedgerAlgorithm:
    """Stateful per-request embedder: everything but the embed step.

    Owns the residual substrate, the table of active allocations, the
    processed-twice guard, the single commit and the single eviction, the
    per-slot sums, the disruption hooks and pickle-each-allocation-once
    checkpointing. The simulator drives it: :meth:`release` for each
    departure at the start of a slot, then :meth:`process` for each
    arrival in order.
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        efficiency: EfficiencyModel | None,
        name: str,
    ) -> None:
        self.substrate = substrate
        self.apps = apps
        self.efficiency = efficiency or UniformEfficiency()
        self.name = name
        self.residual = ResidualState(substrate)
        #: Request id → allocation, in allocation order.
        self.active: dict[int, _ActiveAllocation] = {}
        #: The non-planned rows of ``active`` — same objects, same relative
        #: order — kept by :meth:`_commit` and :meth:`_evict` so OLIVE's
        #: PREEMPT reads RDONE \ RPLAN without walking RDONE. Derived:
        #: it stays out of the checkpoint.
        self.preemptible: dict[int, _ActiveAllocation] = {}

    # -- the embed step ------------------------------------------------------

    def _embed(
        self, request: Request, app: Application
    ) -> tuple[Embedding, ElementLoads] | None:
        """Embed ``request`` against the live residual, or None.

        The one method a subclass implements. The returned loads must fit
        the residual: they are committed as they are.
        """
        raise NotImplementedError

    # -- arrivals ------------------------------------------------------------

    def process(self, request: Request) -> Decision:
        """Embed or reject one arriving request."""
        if request.id in self.active:
            raise SimulationError(f"request {request.id} processed twice")
        return self._decide(request)

    def process_many(self, requests: list[Request]) -> list[Decision]:
        """Process one slot's arrival run: the public bulk shape of
        :meth:`process`, in order against live residuals."""
        return [self.process(r) for r in requests]

    def _decide(self, request: Request) -> Decision:
        """Commit what :meth:`_embed` finds, reject otherwise."""
        result = self._embed(request, self.apps[request.app_index])
        if result is None:
            return Decision(request=request, accepted=False)
        return self._commit(request, *result, via_greedy=True)

    def _commit(
        self,
        request: Request,
        embedding: Embedding,
        loads: ElementLoads,
        *,
        planned: bool = False,
        borrowed: bool = False,
        via_greedy: bool = False,
        pattern_index: int | None = None,
        preempted: Sequence[Request] = (),
    ) -> Decision:
        """ALLOCATE (lines 18–22): commit residuals and record the request."""
        self.residual.allocate(loads)
        cost = loads.cost_per_slot(self.substrate)
        self.active[request.id] = allocation = _ActiveAllocation(
            request=request,
            embedding=embedding,
            loads=loads,
            cost_per_slot=cost,
            planned=planned,
            pattern_index=pattern_index,
        )
        if not planned:
            self.preemptible[request.id] = allocation
        return Decision(
            request=request,
            accepted=True,
            planned=planned,
            borrowed=borrowed,
            via_greedy=via_greedy,
            embedding=embedding,
            cost_per_slot=cost,
            preempted=tuple(preempted),
        )

    # -- departures ----------------------------------------------------------

    def release(self, request: Request) -> None:
        """Return a departing request's resources (slot-start bookkeeping).

        Unknown ids are tolerated: the request may have been rejected at
        arrival or preempted since.
        """
        self._depart(request)

    def _depart(self, request: Request) -> _ActiveAllocation | None:
        """Evict the row ``request`` itself holds, if it still holds one.

        An id can outlive its row: a preempted (or disrupted) request that
        is offered again under its id gets a new row, and the original's
        departure is still on the calendar. That departure must not
        release the retry, so the row has to be this request's — the same
        object, or an equal one where a restore rebuilt the row.
        """
        allocation = self.active.get(request.id)
        if allocation is None or not (
            allocation.request is request or allocation.request == request
        ):
            return None
        return self._evict(request.id)

    def _evict(self, request_id: int) -> _ActiveAllocation | None:
        """Drop one allocation and return its capacity — the single exit
        from ``active`` (departure, preemption, disruption)."""
        allocation = self.active.pop(request_id, None)
        if allocation is not None:
            if not allocation.planned:
                del self.preemptible[request_id]
            self.residual.release(allocation.loads)
        return allocation

    # -- dynamic events ------------------------------------------------------

    def active_loads(self) -> Iterator[tuple[Request, ElementLoads]]:
        """``(request, loads)`` of active allocations, in allocation order.

        The disruption resolver scans this to find stranded allocations;
        insertion order makes its victim choice deterministic and
        identical between the fast and reference engines.
        """
        for allocation in self.active.values():
            yield allocation.request, allocation.loads

    def reroute(self, request: Request) -> bool:
        """One re-embedding attempt for a disrupted request.

        The original allocation is already released; the attempt goes
        through :meth:`_embed` like an arrival, so a success is
        non-planned (an old pattern may sit on failed elements) and the
        differential oracle covers rerouting too.
        """
        result = self._embed(request, self.apps[request.app_index])
        if result is None:
            return False
        self._commit(request, *result, via_greedy=True)
        return True

    def apply_events(
        self, t: int, events: tuple[Any, ...], policy: str
    ) -> list[Request]:
        """Apply one slot's capacity events; resolve stranded allocations.

        Returns the requests the policy dropped (reported as disruptions
        upstream).
        """
        # repro.scenarios imports repro.core at module level.
        from repro.scenarios.events import apply_and_resolve

        return apply_and_resolve(self, events, policy)

    # -- introspection -------------------------------------------------------

    def active_demand(self) -> float:
        """Total demand of currently embedded requests."""
        return sum(a.request.demand for a in self.active.values())

    def active_cost_per_slot(self) -> float:
        """Σ_s load(s)·cost(s) of the current allocation (Eq. 3 inner sum)."""
        return sum(a.cost_per_slot for a in self.active.values())

    # -- checkpointing -------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        """The algorithm's state with each allocation pickled once.

        A row's ``request``, ``embedding``, ``loads`` and ``cost_per_slot``
        are never written after :meth:`_commit`, so they are pickled by
        the first checkpoint that sees the row and the bytes ride on it
        for every later one; ``planned`` and ``pattern_index``, which
        OLIVE's ``switch_plan`` rewrites, ride beside them each time. A
        rerouted id is a new row and is pickled afresh. ``active``'s
        order is the order of the rows.
        """
        rows = []
        for a in self.active.values():
            if a.sealed is None:
                a.sealed = pickle.dumps(
                    (a.request, a.embedding, a.loads, a.cost_per_slot),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            rows.append((a.sealed, a.planned, a.pattern_index))
        state = self.__dict__.copy()
        state["active"] = rows
        del state["preemptible"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        """Rebuild ``active`` from its rows, in order, keeping the bytes."""
        rows = state.pop("active")
        self.__dict__.update(state)
        self.active = {}
        for sealed, planned, pattern_index in rows:
            request, embedding, loads, cost = pickle.loads(sealed)
            self.active[request.id] = _ActiveAllocation(
                request, embedding, loads, cost, planned, pattern_index, sealed
            )
        self.preemptible = {
            i: a for i, a in self.active.items() if not a.planned
        }
