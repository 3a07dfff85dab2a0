"""SLOTOFF: per-slot offline re-optimization (Sec. IV-A).

"SLOTOFF sequentially computes an allocation for each time slot t, by
solving a separate OFF-VNE instance comprising the active requests R(t).
Ongoing active requests may have a completely different allocation for each
time slot (an inherent advantage over OLIVE); rejected requests are not
reconsidered."

The paper runs PRANOS as the per-slot solver; we run our PLAN-VNE LP on the
slot's per-class aggregation (PRANOS is itself an aggregate LP relaxation —
see DESIGN.md §2). The fractional per-class allocation is apportioned to
individual requests earliest-arrival-first: a newly arrived request that
does not fit its class quota is permanently rejected; in the rare case an
ongoing request no longer fits, it is dropped (reported as preempted).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel, UniformEfficiency
from repro.core.olive import Decision
from repro.core.residual import EPSILON
from repro.lp.solver import solve_lp
from repro.plan.formulation import PlanVNEConfig, build_plan_vne
from repro.stats.aggregate import AggregateRequest, ClassKey
from repro.substrate.network import SubstrateNetwork
from repro.utils.fold import left_sum
from repro.workload.request import Request


@dataclass
class SlotResult:
    """Outcome of one SLOTOFF slot."""

    decisions: list[Decision]
    dropped: list[Request]
    resource_cost: float


class SlotOffAlgorithm:
    """Batch per-slot offline solver with the simulator's batch interface."""

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        efficiency: EfficiencyModel | None = None,
        config: PlanVNEConfig | None = None,
    ) -> None:
        self.substrate = substrate
        self.apps = apps
        self.efficiency = efficiency or UniformEfficiency()
        self.config = config or PlanVNEConfig()
        self.name = "SLOTOFF"
        #: Requests currently embedded (accepted and still active).
        self.active: dict[int, Request] = {}
        self._last_resource_cost = 0.0
        self._last_fraction: dict[ClassKey, float] = {}
        #: The nominal substrate; ``self.substrate`` is swapped for an
        #: effective-capacity copy while dynamic events are in force.
        self._nominal_substrate = substrate
        self._node_overrides: dict = {}
        self._link_overrides: dict = {}

    def release(self, request: Request) -> None:
        self.active.pop(request.id, None)

    def apply_events(self, t: int, events, policy: str) -> list[Request]:
        """Consume one slot's capacity events.

        SLOTOFF re-solves the whole slot from the substrate anyway, so an
        event merely swaps in an effective-capacity substrate copy; the
        next :meth:`run_slot` naturally sheds over-quota ongoing requests
        (reported as dropped there), so no immediate preemption happens
        here and the disruption policy is moot.
        """
        from repro.scenarios.events import substrate_with_capacities

        nominal = self._nominal_substrate
        changed = False
        for event in events:
            for kind, element, capacity in event.capacity_changes(nominal):
                overrides = (
                    self._node_overrides if kind == "node"
                    else self._link_overrides
                )
                nominal_capacity = (
                    nominal.node_capacity(element) if kind == "node"
                    else nominal.link_capacity(element)
                )
                if capacity == nominal_capacity:
                    changed = overrides.pop(element, None) is not None or changed
                elif overrides.get(element) != capacity:
                    overrides[element] = capacity
                    changed = True
        if changed:
            self.substrate = substrate_with_capacities(
                nominal, self._node_overrides, self._link_overrides
            )
        return []

    def run_slot(self, t: int, arrivals: list[Request]) -> SlotResult:
        """Re-solve the slot's OFF-VNE instance and apportion per request."""
        population = sorted(
            list(self.active.values()) + list(arrivals),
            key=lambda r: (r.arrival, r.id),
        )
        if not population:
            self._last_resource_cost = 0.0
            return SlotResult(decisions=[], dropped=[], resource_cost=0.0)

        by_class: dict[ClassKey, list[Request]] = {}
        for request in population:
            by_class.setdefault(request.class_key(), []).append(request)
        aggregates = [
            AggregateRequest(
                app_index=key[0],
                ingress=key[1],
                demand=left_sum(r.demand for r in requests),
            )
            for key, requests in sorted(by_class.items())
        ]

        model = build_plan_vne(
            self.substrate, self.apps, aggregates, self.efficiency, self.config
        )
        solution = solve_lp(model.program)

        # Resource cost = objective minus the quantile rejection penalty.
        rejection_cost = 0.0
        for layout in model.layout:
            first = layout.quantile_start
            for var in range(first, first + self.config.num_quantiles):
                rejection_cost += solution.values[var] * (
                    model.program.objective_coefficient(var)
                )
        self._last_resource_cost = solution.objective - rejection_cost

        fractions: dict[ClassKey, float] = {
            aggregate.class_key: float(solution.values[layout.root])
            for aggregate, layout in zip(aggregates, model.layout)
        }
        self._last_fraction = fractions

        arrival_ids = {r.id for r in arrivals}
        decisions: list[Decision] = []
        dropped: list[Request] = []
        for key, requests in by_class.items():
            total = left_sum(r.demand for r in requests)
            quota = fractions[key] * total + EPSILON * max(1.0, total)
            used = 0.0
            for request in requests:  # already earliest-first
                fits = used + request.demand <= quota
                if fits:
                    used += request.demand
                if request.id in arrival_ids:
                    decisions.append(
                        Decision(request=request, accepted=fits)
                    )
                    if fits:
                        self.active[request.id] = request
                elif not fits:
                    self.active.pop(request.id, None)
                    dropped.append(request)
        return SlotResult(
            decisions=decisions,
            dropped=dropped,
            resource_cost=self._last_resource_cost,
        )

    # -- introspection, mirroring the per-request algorithms ----------------

    def active_demand(self) -> float:
        """Total demand of the active requests, added up left to right."""
        return left_sum(request.demand for request in self.active.values())

    def active_cost_per_slot(self) -> float:
        """Resource cost of the last solved slot (Eq. 3 inner sum)."""
        return self._last_resource_cost
