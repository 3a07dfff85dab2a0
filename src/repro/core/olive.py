"""OLIVE — Algorithm 2: plan-guided online embedding with compensation.

Per arriving request, in order:

1. **Planned embedding** (PLANEMBED, lines 23–26): find a plan pattern of
   the request's class whose residual planned capacity covers the whole
   demand. Such an allocation is marked ``planned`` and draws down the
   residual plan (Eq. 17). The plan is already cost-optimized, so no
   further optimization is attempted.
2. **Preemption** (lines 8–9, 35–38): if the planned embedding exceeds the
   substrate residual — because earlier non-planned allocations "borrowed"
   capacity the plan reserved — preempt borrowed allocations overlapping
   the shortfall to restore the guarantee.
3. **Borrowed partial fit** (lines 27–29): if no pattern covers the whole
   demand but one has *some* residual, embed the full request along that
   pattern anyway (subject to substrate feasibility), marked non-planned.
   It borrows unused capacity and is preemptible later.
4. **Greedy fallback** (lines 10–11, 31–34): the collocated least-cost
   embedding against the substrate residual.
5. Otherwise reject.

Running OLIVE with an empty plan short-circuits steps 1–3 and yields the
QUICKG baseline.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel, UniformEfficiency
from repro.core import greedy_reference
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.greedy import GreedyContext
from repro.core.profile import LoadsRecipe
from repro.core.residual import EPSILON, PlanResidual, ResidualState
from repro.errors import SimulationError
from repro.plan.pattern import Plan
from repro.stats.aggregate import ClassKey
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


@dataclass
class _ActiveAllocation:
    """Book-keeping for one active (embedded) request."""

    request: Request
    embedding: Embedding
    loads: ElementLoads
    cost_per_slot: float
    planned: bool
    pattern_index: int | None
    class_key: ClassKey


class OliveAlgorithm:
    """Stateful online embedder implementing Algorithm 2.

    The simulator drives it: call :meth:`release` for each departure at the
    start of a slot, then :meth:`process` for each arrival in order.
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        plan: Plan,
        efficiency: EfficiencyModel | None = None,
        enable_preemption: bool = True,
        enable_borrowing: bool = True,
        allow_split_greedy: bool = True,
        name: str | None = None,
        use_fast_greedy: bool = True,
    ) -> None:
        self.substrate = substrate
        self.apps = apps
        self.plan = plan
        self.efficiency = efficiency or UniformEfficiency()
        self.enable_preemption = enable_preemption
        self.enable_borrowing = enable_borrowing
        self.allow_split_greedy = allow_split_greedy
        self.name = name or ("QUICKG" if plan.is_empty else "OLIVE")
        self.residual = ResidualState(substrate)
        self.plan_residual = PlanResidual(plan)
        self.active: dict[int, _ActiveAllocation] = {}
        #: Indexed GREEDYEMBED state (substrate index + app profiles);
        #: ``use_fast_greedy=False`` routes through the scalar reference
        #: instead — the decision-equivalence tests compare the two.
        self.greedy_context = (
            GreedyContext(substrate, self.efficiency, self.residual)
            if use_fast_greedy
            else None
        )
        #: Precompiled per-pattern load computations (plan patterns are
        #: re-embedded verbatim; only the demand factor varies).
        self._pattern_recipes: dict[int, tuple[object, LoadsRecipe]] = {}
        #: Shared per-pattern :class:`Embedding` instances (fast engine
        #: only). A pattern's embedding is demand-independent and
        #: ``Embedding`` is frozen, so one immutable instance serves
        #: every request embedded via that pattern — value-equal to the
        #: fresh copies the reference mode builds.
        self._pattern_embeddings: dict[int, tuple[object, Embedding]] = {}
        # Mirrors of the active table for the per-slot introspection
        # sums; same keys in the same insertion order as ``active``, so
        # the sums accumulate bit-identically to iterating it.
        self._active_demands: dict[int, float] = {}
        self._active_costs: dict[int, float] = {}
        #: Request id → ``(allocation, its write-once fields pickled)``
        #: for the allocations the last pickling saw (see __getstate__).
        self._sealed_allocations: dict[
            int, tuple[_ActiveAllocation, bytes]
        ] = {}

    def switch_plan(self, plan: Plan) -> None:
        """Replace the embedding plan mid-run (time-windowed planning).

        Active *planned* allocations are downgraded to borrowed status:
        their patterns belong to the retired plan, so the new plan's
        guarantees must not be pinned by them — under the new plan they
        are exactly "capacity borrowed from the planned classes" and hence
        become preemptible, which is the conservative interpretation.
        """
        self.plan = plan
        self.plan_residual = PlanResidual(plan)
        self._pattern_recipes.clear()
        self._pattern_embeddings.clear()
        for allocation in self.active.values():
            allocation.planned = False
            allocation.pattern_index = None

    # -- checkpointing -------------------------------------------------------

    def __getstate__(self) -> dict:
        """The algorithm's state with each allocation pickled once.

        An allocation's ``request``, ``embedding``, ``loads``,
        ``cost_per_slot`` and ``class_key`` are never written after
        :meth:`_allocate`, so they are pickled the first time a
        checkpoint sees the allocation and the bytes are reused by every
        later one; ``planned`` and ``pattern_index``, which
        :meth:`switch_plan` rewrites, ride beside them each time. The
        bytes are held against the allocation *object*: an id that left
        ``active`` is dropped, and an id allocated again (a reroute) is
        a new object and is pickled afresh. ``active``'s order is the
        order of the rows.
        """
        known = self._sealed_allocations
        sealed: dict[int, tuple[_ActiveAllocation, bytes]] = {}
        rows = []
        for request_id, allocation in self.active.items():
            entry = known.get(request_id)
            if entry is None or entry[0] is not allocation:
                entry = (
                    allocation,
                    pickle.dumps(
                        (
                            allocation.request,
                            allocation.embedding,
                            allocation.loads,
                            allocation.cost_per_slot,
                            allocation.class_key,
                        ),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    ),
                )
            sealed[request_id] = entry
            rows.append(
                (entry[1], allocation.planned, allocation.pattern_index)
            )
        self._sealed_allocations = sealed
        state = self.__dict__.copy()
        del state["_sealed_allocations"]
        state["active"] = rows
        return state

    def __setstate__(self, state: dict) -> None:
        """Rebuild ``active`` from its rows, in order, keeping the bytes."""
        rows = state.pop("active")
        self.__dict__.update(state)
        self.active = {}
        self._sealed_allocations = {}
        for sealed, planned, pattern_index in rows:
            request, embedding, loads, cost, class_key = pickle.loads(sealed)
            allocation = _ActiveAllocation(
                request=request,
                embedding=embedding,
                loads=loads,
                cost_per_slot=cost,
                planned=planned,
                pattern_index=pattern_index,
                class_key=class_key,
            )
            self.active[request.id] = allocation
            self._sealed_allocations[request.id] = (allocation, sealed)

    # -- departures ---------------------------------------------------------

    def release(self, request: Request) -> None:
        """Return a departing request's resources (slot-start bookkeeping).

        Unknown ids are tolerated: the request may have been rejected at
        arrival or preempted since.
        """
        allocation = self.active.pop(request.id, None)
        if allocation is None:
            return
        del self._active_demands[request.id]
        del self._active_costs[request.id]
        self.residual.release(allocation.loads)
        if allocation.planned:
            self.plan_residual.release(
                allocation.class_key,
                allocation.pattern_index,
                request.demand,
            )

    # -- arrivals -----------------------------------------------------------

    def process(self, request: Request) -> Decision:
        """Embed or reject one arriving request (Algorithm 2, lines 6–16)."""
        if request.id in self.active:
            raise SimulationError(f"request {request.id} processed twice")
        app = self.apps[request.app_index]
        class_key = request.class_key()

        embedding: Embedding | None = None
        loads: ElementLoads | None = None
        planned = False
        borrowed = False
        pattern_index: int | None = None
        preempted: list[Request] = []

        class_plan = self.plan.class_plan(class_key)
        if class_plan is not None:
            index = self.plan_residual.find_full_fit(class_key, request.demand)
            if index is not None:
                pattern = class_plan.patterns[index]
                embedding = self._pattern_embedding(pattern)
                loads = self._pattern_loads(
                    pattern, app, embedding, request.demand
                )
                planned = True
                pattern_index = index
            elif self.enable_borrowing:
                index = self.plan_residual.find_partial_fit(class_key)
                if index is not None:
                    pattern = class_plan.patterns[index]
                    candidate = self._pattern_embedding(pattern)
                    candidate_loads = self._pattern_loads(
                        pattern, app, candidate, request.demand
                    )
                    if self.residual.fits(candidate_loads):
                        embedding, loads = candidate, candidate_loads
                        borrowed = True

        if planned and loads is not None and not self.residual.fits(loads):
            freed = (
                self._preempt_for(loads) if self.enable_preemption else None
            )
            if freed is None:
                embedding, loads = None, None
                planned, pattern_index = False, None
            else:
                preempted = freed

        if embedding is None:
            greedy_result = self._greedy_result(request, app)
            if greedy_result is not None:
                embedding, loads = greedy_result
                return self._allocate(
                    request, app, embedding, loads, planned=False,
                    borrowed=False, via_greedy=True,
                    pattern_index=None, preempted=preempted,
                )
            return Decision(
                request=request, accepted=False, preempted=tuple(preempted)
            )

        return self._allocate(
            request, app, embedding, loads, planned=planned,
            borrowed=borrowed, via_greedy=False,
            pattern_index=pattern_index, preempted=preempted,
        )

    def process_many(self, requests: list[Request]) -> list[Decision]:
        """Process one slot's arrival run: the public bulk shape of
        :meth:`process`, in order against live residuals."""
        return [self.process(r) for r in requests]

    # -- dynamic events ------------------------------------------------------

    def active_loads(self):
        """``(request, loads)`` of active allocations, in allocation order.

        The disruption resolver scans this to find stranded allocations;
        insertion order makes its victim choice deterministic and
        identical between the fast and reference engines.
        """
        for allocation in self.active.values():
            yield allocation.request, allocation.loads

    def reroute(self, request: Request) -> bool:
        """One greedy re-embedding attempt for a disrupted request.

        The original allocation is already released; a successful
        re-embedding is non-planned (its old pattern may sit on failed
        elements), i.e. borrowed-like and preemptible. Routed through the
        same engine (fast or reference) as the arrival path, so the
        differential oracle covers rerouting too.
        """
        app = self.apps[request.app_index]
        result = self._greedy_result(request, app)
        if result is None:
            return False
        embedding, loads = result
        self._allocate(
            request, app, embedding, loads, planned=False,
            borrowed=False, via_greedy=True,
            pattern_index=None, preempted=[],
        )
        return True

    def apply_events(self, t: int, events, policy: str) -> list[Request]:
        """Apply one slot's capacity events; resolve stranded allocations.

        Shared machinery in :mod:`repro.scenarios.events`; returns the
        requests the policy dropped (reported as disruptions upstream).
        """
        from repro.scenarios.events import apply_and_resolve

        return apply_and_resolve(self, events, policy)

    # -- internals ----------------------------------------------------------

    def _greedy_result(self, request: Request, app: Application):
        """GREEDYEMBED through the configured engine: ``(embedding, loads)``
        or None. The fast path hands back the loads its residual check
        already materialized, saving a second compute_loads."""
        if self.greedy_context is not None:
            return self.greedy_context.embed(
                request, app, allow_split_groups=self.allow_split_greedy
            )
        embedding = greedy_reference.greedy_embed(
            request, app, self.substrate, self.efficiency, self.residual,
            allow_split_groups=self.allow_split_greedy,
        )
        if embedding is None:
            return None
        loads = compute_loads(
            app, request.demand, embedding, self.substrate, self.efficiency
        )
        return embedding, loads

    def _pattern_embedding(self, pattern) -> Embedding:
        """The concrete embedding of a plan pattern.

        The fast engine shares one frozen :class:`Embedding` per pattern
        (the mapping is demand-independent); the reference mode builds a
        fresh copy per request — value-equal either way, so decisions
        compare identically.
        """
        if self.greedy_context is None:
            return Embedding.from_pattern(pattern)
        entry = self._pattern_embeddings.get(id(pattern))
        if entry is None or entry[0] is not pattern:
            embedding = Embedding.from_pattern(pattern)
            self._pattern_embeddings[id(pattern)] = (pattern, embedding)
            return embedding
        return entry[1]

    def _pattern_loads(
        self,
        pattern,
        app: Application,
        embedding: Embedding,
        demand: float,
    ) -> ElementLoads:
        """Loads of a plan-pattern embedding at ``demand``.

        The fast path compiles one :class:`LoadsRecipe` per pattern; the
        reference mode (``use_fast_greedy=False``) recomputes from
        scratch — both produce bit-identical values.
        """
        if self.greedy_context is None:
            return compute_loads(
                app, demand, embedding, self.substrate, self.efficiency
            )
        entry = self._pattern_recipes.get(id(pattern))
        if entry is None or entry[0] is not pattern:
            recipe = LoadsRecipe(
                app, embedding, self.substrate, self.efficiency
            )
            self._pattern_recipes[id(pattern)] = (pattern, recipe)
        else:
            recipe = entry[1]
        return recipe.loads(demand)

    def _allocate(
        self,
        request: Request,
        app: Application,
        embedding: Embedding,
        loads: ElementLoads,
        planned: bool,
        borrowed: bool,
        via_greedy: bool,
        pattern_index: int | None,
        preempted: list[Request],
    ) -> Decision:
        """ALLOCATE (lines 18–22): commit residuals and record the request."""
        self.residual.allocate(loads)
        if planned:
            self.plan_residual.draw(
                request.class_key(), pattern_index, request.demand
            )
        cost = loads.cost_per_slot(self.substrate)
        self.active[request.id] = _ActiveAllocation(
            request=request,
            embedding=embedding,
            loads=loads,
            cost_per_slot=cost,
            planned=planned,
            pattern_index=pattern_index,
            class_key=request.class_key(),
        )
        self._active_demands[request.id] = request.demand
        self._active_costs[request.id] = cost
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

    def _preempt_for(self, loads: ElementLoads) -> list[Request] | None:
        """PREEMPT (lines 35–38): free borrowed capacity for a planned fit.

        Only non-planned active allocations (RDONE \\ RPLAN) are candidates.
        Returns the preempted requests, or None when even preempting every
        candidate could not cover the shortfall (then nothing is touched).
        """
        shortfall = self.residual.shortfall(loads)
        if not shortfall.nodes and not shortfall.links:
            return []
        candidates = [a for a in self.active.values() if not a.planned]

        available_nodes: dict = {}
        available_links: dict = {}
        for allocation in candidates:
            for node, load in allocation.loads.nodes.items():
                available_nodes[node] = available_nodes.get(node, 0.0) + load
            for link, load in allocation.loads.links.items():
                available_links[link] = available_links.get(link, 0.0) + load
        for node, need in shortfall.nodes.items():
            if available_nodes.get(node, 0.0) + EPSILON < need:
                return None
        for link, need in shortfall.links.items():
            if available_links.get(link, 0.0) + EPSILON < need:
                return None

        remaining_nodes = dict(shortfall.nodes)
        remaining_links = dict(shortfall.links)

        def contribution(allocation: _ActiveAllocation) -> float:
            total = 0.0
            for node, load in allocation.loads.nodes.items():
                if node in remaining_nodes:
                    total += min(load, remaining_nodes[node])
            for link, load in allocation.loads.links.items():
                if link in remaining_links:
                    total += min(load, remaining_links[link])
            return total

        chosen: list[_ActiveAllocation] = []
        for allocation in sorted(candidates, key=contribution, reverse=True):
            if not remaining_nodes and not remaining_links:
                break
            if contribution(allocation) <= 0:
                continue
            chosen.append(allocation)
            for node, load in allocation.loads.nodes.items():
                if node in remaining_nodes:
                    remaining_nodes[node] -= load
                    if remaining_nodes[node] <= EPSILON:
                        del remaining_nodes[node]
            for link, load in allocation.loads.links.items():
                if link in remaining_links:
                    remaining_links[link] -= load
                    if remaining_links[link] <= EPSILON:
                        del remaining_links[link]
        if remaining_nodes or remaining_links:  # pragma: no cover
            return None

        for allocation in chosen:
            self.active.pop(allocation.request.id)
            del self._active_demands[allocation.request.id]
            del self._active_costs[allocation.request.id]
            self.residual.release(allocation.loads)
        return [allocation.request for allocation in chosen]

    # -- introspection -------------------------------------------------------

    def active_demand(self) -> float:
        """Total demand of currently embedded requests."""
        return sum(self._active_demands.values())

    def active_cost_per_slot(self) -> float:
        """Σ_s load(s)·cost(s) of the current allocation (Eq. 3 inner sum)."""
        return sum(self._active_costs.values())
