"""Time-windowed plans — the paper's "future work" extension.

The PLAN-VNE plan of Sec. III is time-independent: one expected peak demand
per class over the whole horizon. The conclusions call out specialized
plans that "account for time-dependent expected demand"; this module
implements that: the history is split into K contiguous time windows, a
separate PLAN-VNE plan is computed from each window's demand statistics,
and the online phase switches plans at the proportional window boundaries
(assuming the online horizon exhibits the same temporal structure — e.g.,
diurnal periodicity).

Plan switching semantics are conservative (see
:meth:`repro.core.olive.OliveAlgorithm.switch_plan`): allocations planned
under a retired window become borrowed, hence preemptible by the new
window's guarantees.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.olive import OliveAlgorithm
from repro.errors import PlanError
from repro.plan.api import compute_plan
from repro.plan.formulation import PlanVNEConfig
from repro.plan.pattern import Plan
from repro.stats.aggregate import AggregateRequest, class_demand_series
from repro.stats.bootstrap import bootstrap_percentile
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import child_rng
from repro.workload.request import Request, RequestColumns


@dataclass
class PlanSchedule:
    """K plans with their activation slots in online time.

    ``starts`` is strictly increasing and begins at 0; ``plans[i]`` is
    active for slots in ``[starts[i], starts[i+1])``. A cyclic schedule
    (``period`` set) repeats: the plan for slot t is looked up at
    ``t mod period`` — the natural shape for diurnal demand.
    """

    starts: list[int]
    plans: list[Plan]
    period: int | None = None

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.plans) or not self.plans:
            raise PlanError("schedule needs one start slot per plan")
        if self.starts[0] != 0:
            raise PlanError("the first window must start at slot 0")
        if any(b <= a for a, b in zip(self.starts, self.starts[1:])):
            raise PlanError("window starts must be strictly increasing")
        if self.period is not None and self.period <= self.starts[-1]:
            raise PlanError("cycle period must extend past the last window")

    def plan_for_slot(self, t: int) -> Plan:
        """The plan active at online slot ``t``."""
        if self.period is not None:
            t = t % self.period
        index = bisect.bisect_right(self.starts, t) - 1
        return self.plans[max(index, 0)]

    @property
    def num_windows(self) -> int:
        return len(self.plans)


def compute_windowed_plans(
    substrate: SubstrateNetwork,
    apps: list[Application],
    history: Sequence[Request] | RequestColumns,
    history_slots: int,
    online_slots: int,
    num_windows: int,
    alpha: float = 80.0,
    efficiency: EfficiencyModel | None = None,
    config: PlanVNEConfig | None = None,
    rng: np.random.Generator | None = None,
    min_demand: float = 1e-9,
    cycle_period: int | None = None,
) -> PlanSchedule:
    """Split the history into K windows and compute one plan per window.

    Window k's expected demand is the bootstrap P̂α of each class's demand
    series restricted to that window; its plan activates at the
    proportional slot of the online horizon.

    With ``cycle_period`` set (diurnal demand), windows slice the history
    *by phase*: window k aggregates every history slot whose phase
    ``t mod cycle_period`` falls in the k-th fraction of the cycle, and
    the returned schedule repeats with that period during the online
    phase. Without it, windows are contiguous chunks of the history and
    activate at proportional online slots.
    """
    if num_windows < 1:
        raise PlanError("need at least one window")
    if num_windows > history_slots:
        raise PlanError("more windows than history slots")
    if cycle_period is not None and not num_windows <= cycle_period <= history_slots:
        raise PlanError(
            "cycle period must fit the history and cover every window"
        )
    if cycle_period is None and num_windows > online_slots:
        raise PlanError(f"online_slots={online_slots} < {num_windows} windows")
    if rng is None:
        rng = np.random.default_rng(0)

    series = class_demand_series(history, history_slots)
    slot_index = np.arange(history_slots)
    starts: list[int] = []
    plans: list[Plan] = []
    for window in range(num_windows):
        if cycle_period is not None:
            lo = (window * cycle_period) // num_windows
            hi = ((window + 1) * cycle_period) // num_windows
            mask = (slot_index % cycle_period >= lo) & (
                slot_index % cycle_period < hi
            )
            starts.append(lo)
        else:
            lo = (window * history_slots) // num_windows
            hi = ((window + 1) * history_slots) // num_windows
            mask = (slot_index >= lo) & (slot_index < hi)
            starts.append((window * online_slots) // num_windows)
        aggregates: list[AggregateRequest] = []
        for key in sorted(series):
            segment = series[key][mask]
            estimate = bootstrap_percentile(
                segment,
                alpha=alpha,
                rng=child_rng(rng, "window", window, key[0], key[1]),
            )
            if estimate.estimate > min_demand:
                aggregates.append(
                    AggregateRequest(
                        app_index=key[0], ingress=key[1],
                        demand=estimate.estimate,
                    )
                )
        plans.append(
            compute_plan(substrate, apps, aggregates, efficiency, config)
        )
    return PlanSchedule(starts=starts, plans=plans, period=cycle_period)


class WindowedOliveAlgorithm(OliveAlgorithm):
    """OLIVE driving a :class:`PlanSchedule` (plan per time window)."""

    def __init__(
        self,
        substrate: SubstrateNetwork,
        apps: list[Application],
        schedule: PlanSchedule,
        efficiency: EfficiencyModel | None = None,
        **kwargs,
    ) -> None:
        super().__init__(
            substrate,
            apps,
            schedule.plan_for_slot(0),
            efficiency=efficiency,
            name=kwargs.pop("name", "OLIVE-W"),
            **kwargs,
        )
        self.schedule = schedule

    def on_slot(self, t: int) -> None:
        """Simulator hook: switch to the window's plan when it changes."""
        plan = self.schedule.plan_for_slot(t)
        if plan is not self.plan:
            self.switch_plan(plan)
