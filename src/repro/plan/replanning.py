"""Online replanning: refresh the plan from recently observed demand.

The paper's conclusion highlights the modularity of the plan/execute split:
"the planning mechanism best suited for each practical setting" can be
plugged in. This module implements the natural online variant — instead of
one plan computed from a historical trace, the algorithm records the
requests it actually observes and re-solves PLAN-VNE every ``interval``
slots from a sliding window of that live history. This removes the
stationarity assumption (Sec. III-A) at the price of periodic LP solves.

Replanning reuses :meth:`OliveAlgorithm.switch_plan`, so allocations made
under a retired plan become borrowed (preemptible) under the new one.
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.olive import Decision, OliveAlgorithm
from repro.errors import PlanError
from repro.plan.api import compute_plan, empty_plan
from repro.plan.formulation import PlanVNEConfig
from repro.stats.aggregate import build_aggregate_demand
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import child_rng, make_rng
from repro.workload.request import Request


class ReplanningOliveAlgorithm(OliveAlgorithm):
    """OLIVE that periodically re-solves PLAN-VNE from observed demand.

    Parameters
    ----------
    interval:
        Re-plan every this many slots (the first plan is computed at the
        first replan point; before that the algorithm runs plan-less,
        i.e., like QUICKG).
    window:
        Sliding-history length in slots used as R_HIST for each replan.
    alpha:
        Percentile for the aggregated expected demand (paper: 80).
    seed_plan:
        Optional initial plan to use before the first replan (e.g., one
        computed offline from an old trace).
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        interval: int = 50,
        window: int = 200,
        alpha: float = 80.0,
        efficiency: EfficiencyModel | None = None,
        plan_config: PlanVNEConfig | None = None,
        seed_plan=None,
        seed: int = 0,
        **kwargs,
    ) -> None:
        if interval < 1:
            raise PlanError("replanning interval must be >= 1 slot")
        if window < interval:
            raise PlanError("history window must cover at least one interval")
        super().__init__(
            substrate,
            apps,
            seed_plan if seed_plan is not None else empty_plan(),
            efficiency=efficiency,
            name=kwargs.pop("name", "OLIVE-R"),
            **kwargs,
        )
        self.interval = interval
        self.window = window
        self.alpha = alpha
        self.plan_config = plan_config or PlanVNEConfig()
        self._rng = make_rng(seed)
        self._observed: list[Request] = []
        self._replan_count = 0

    # -- observation ---------------------------------------------------------

    def process(self, request: Request) -> Decision:
        """Embed, then record the request (accepted or not) as observed;
        one the ledger refuses is not observed."""
        decision = super().process(request)
        self._observed.append(request)
        return decision

    def on_slot(self, t: int) -> None:
        """Simulator hook: replan at each interval boundary (not at t=0)."""
        if t == 0 or t % self.interval != 0:
            return
        self._replan(t)

    # -- internals -------------------------------------------------------------

    def _replan(self, t: int) -> None:
        """Re-solve PLAN-VNE from the sliding observation window."""
        horizon_start = max(0, t - self.window)
        # Re-base arrivals so the aggregation horizon starts at zero. A
        # request that arrived before the window but is still active is
        # clamped to the window start with its remaining duration — only
        # its in-window activity matters for the demand series.
        recent = []
        for r in self._observed:
            if r.departure <= horizon_start or r.arrival >= t:
                continue
            clamped_arrival = max(r.arrival, horizon_start)
            recent.append(
                Request(
                    arrival=clamped_arrival - horizon_start,
                    id=r.id,
                    app_index=r.app_index,
                    ingress=r.ingress,
                    demand=r.demand,
                    duration=r.departure - clamped_arrival,
                )
            )
        # Drop observations that can never matter again to bound memory.
        self._observed = [r for r in self._observed if r.departure > horizon_start]
        if not recent:
            return
        aggregates = build_aggregate_demand(
            recent,
            num_slots=t - horizon_start,
            alpha=self.alpha,
            rng=child_rng(self._rng, "replan", self._replan_count),
        )
        plan = compute_plan(
            self.substrate,
            self.apps,
            aggregates,
            self.efficiency,
            self.plan_config,
        )
        self._replan_count += 1
        self.switch_plan(plan)

    @property
    def replan_count(self) -> int:
        """How many times the plan has been refreshed so far."""
        return self._replan_count
