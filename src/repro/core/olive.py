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
QUICKG baseline. The residual, the active table, ALLOCATE, departures,
disruption hooks and checkpointing are :mod:`repro.core.ledger`'s.
"""

from __future__ import annotations

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel
from repro.core import greedy_reference
from repro.core.embedding import ElementLoads, Embedding, compute_loads
from repro.core.greedy import GreedyContext
from repro.core.ledger import Decision, LedgerAlgorithm, _ActiveAllocation
from repro.core.profile import LoadsRecipe
from repro.core.residual import EPSILON, PlanResidual
from repro.plan.pattern import Plan
from repro.substrate.network import SubstrateNetwork
from repro.workload.request import Request


class OliveAlgorithm(LedgerAlgorithm):
    """Algorithm 2 on the shared ledger: plan draw, borrowing and
    preemption in front of the GREEDYEMBED embed step."""

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
        super().__init__(
            substrate, apps, efficiency,
            name or ("QUICKG" if plan.is_empty else "OLIVE"),
        )
        self.plan = plan
        self.enable_preemption = enable_preemption
        self.enable_borrowing = enable_borrowing
        self.allow_split_greedy = allow_split_greedy
        self.plan_residual = PlanResidual(plan)
        #: Indexed GREEDYEMBED state (substrate index + app profiles);
        #: ``use_fast_greedy=False`` routes through the scalar reference
        #: instead — the decision-equivalence tests compare the two.
        self.greedy_context = (
            GreedyContext(substrate, self.efficiency, self.residual)
            if use_fast_greedy
            else None
        )
        #: Plan patterns compiled once (fast engine only), by ``id``:
        #: ``(pattern, its Embedding, its LoadsRecipe)``. A pattern is
        #: re-embedded verbatim and ``Embedding`` is frozen, so one
        #: immutable instance serves every request embedded via it; only
        #: the demand factor of the loads varies.
        self._compiled_patterns: dict[
            int, tuple[object, Embedding, LoadsRecipe]
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
        self._compiled_patterns.clear()
        for allocation in self.active.values():
            allocation.planned = False
            allocation.pattern_index = None
        self.preemptible = dict(self.active)

    # -- departures ---------------------------------------------------------

    def release(self, request: Request) -> None:
        """Return a departing request's resources, and its plan draw."""
        allocation = self._depart(request)
        if allocation is not None and allocation.planned:
            self.plan_residual.release(
                allocation.request.class_key(),
                allocation.pattern_index,
                request.demand,
            )

    # -- arrivals -----------------------------------------------------------

    def _decide(self, request: Request) -> Decision:
        """Embed or reject one arriving request (Algorithm 2, lines 6–16)."""
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
                embedding, loads = self._pattern_fit(
                    class_plan.patterns[index], app, request.demand
                )
                planned = True
                pattern_index = index
            elif self.enable_borrowing:
                index = self.plan_residual.find_partial_fit(class_key)
                if index is not None:
                    candidate, candidate_loads = self._pattern_fit(
                        class_plan.patterns[index], app, request.demand
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
            result = self._embed(request, app)
            if result is None:
                return Decision(
                    request=request, accepted=False, preempted=tuple(preempted)
                )
            return self._commit(
                request, *result, via_greedy=True, preempted=preempted
            )
        decision = self._commit(
            request, embedding, loads, planned=planned, borrowed=borrowed,
            pattern_index=pattern_index, preempted=preempted,
        )
        if planned:
            self.plan_residual.draw(class_key, pattern_index, request.demand)
        return decision

    # -- internals ----------------------------------------------------------

    def _embed(
        self, request: Request, app: Application
    ) -> tuple[Embedding, ElementLoads] | None:
        """GREEDYEMBED through the configured engine (fast or reference).
        The fast path hands back the loads its residual check already
        materialized, saving a second compute_loads."""
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

    def _pattern_fit(
        self, pattern, app: Application, demand: float
    ) -> tuple[Embedding, ElementLoads]:
        """A plan pattern's embedding and its loads at ``demand``.

        The fast engine compiles each pattern once and shares the frozen
        :class:`Embedding`; the reference mode (``use_fast_greedy=False``)
        builds both from scratch per request — value-equal embeddings and
        bit-identical loads either way, so decisions compare identically.
        """
        if self.greedy_context is None:
            embedding = Embedding.from_pattern(pattern)
            return embedding, compute_loads(
                app, demand, embedding, self.substrate, self.efficiency
            )
        entry = self._compiled_patterns.get(id(pattern))
        if entry is None or entry[0] is not pattern:
            embedding = Embedding.from_pattern(pattern)
            recipe = LoadsRecipe(
                app, embedding, self.substrate, self.efficiency
            )
            entry = self._compiled_patterns[id(pattern)] = (
                pattern, embedding, recipe
            )
        return entry[1], entry[2].loads(demand)

    def _preempt_for(self, loads: ElementLoads) -> list[Request] | None:
        """PREEMPT (lines 35–38): free borrowed capacity for a planned fit.

        Only non-planned active allocations (RDONE \\ RPLAN) are candidates,
        and the ledger keeps exactly those in ``preemptible``. Returns the
        preempted requests, or None when even preempting every candidate
        could not cover the shortfall (then nothing is touched).
        """
        shortfall = self.residual.shortfall(loads)
        if not shortfall.nodes and not shortfall.links:
            return []

        # Only the short elements are summed — each in allocation order,
        # so the float sums are the ones a walk of every load would give —
        # and only rows loading one of them can ever contribute.
        available_nodes = dict.fromkeys(shortfall.nodes, 0.0)
        available_links = dict.fromkeys(shortfall.links, 0.0)
        candidates: list[_ActiveAllocation] = []
        for allocation in self.preemptible.values():
            touches = False
            row_nodes = allocation.loads.nodes
            for node in available_nodes:
                load = row_nodes.get(node)
                if load is not None:
                    available_nodes[node] += load
                    touches = True
            row_links = allocation.loads.links
            for link in available_links:
                load = row_links.get(link)
                if load is not None:
                    available_links[link] += load
                    touches = True
            if touches:
                candidates.append(allocation)
        for node, need in shortfall.nodes.items():
            if available_nodes[node] + EPSILON < need:
                return None
        for link, need in shortfall.links.items():
            if available_links[link] + EPSILON < need:
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
            self._evict(allocation.request.id)
        return [allocation.request for allocation in chosen]
