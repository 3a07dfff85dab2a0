"""Top-level plan computation: build LP → solve → decompose (Alg. 1 step 2)."""

from __future__ import annotations

import numpy as np

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel
from repro.lp.solver import solve_lp
from repro.plan.decompose import DEFAULT_TOLERANCE, decompose_class
from repro.plan.formulation import PlanVNEConfig, build_plan_vne
from repro.plan.pattern import ClassPlan, Plan
from repro.stats.aggregate import AggregateRequest
from repro.substrate.network import SubstrateNetwork
from repro.utils.fold import left_sum


def empty_plan() -> Plan:
    """The degenerate plan that turns OLIVE into the QUICKG baseline."""
    return Plan()


def compute_plan(
    substrate: SubstrateNetwork,
    apps: list[Application],
    aggregates: list[AggregateRequest],
    efficiency: EfficiencyModel | None = None,
    config: PlanVNEConfig | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Plan:
    """Solve PLAN-VNE for the aggregated demand and decompose into patterns.

    Returns an empty plan when there is no aggregated demand (an empty
    history legitimately produces one — OLIVE then behaves like QUICKG).
    """
    if not aggregates:
        return Plan()
    model = build_plan_vne(substrate, apps, aggregates, efficiency, config)
    solution = solve_lp(model.program)
    node_ids = list(substrate.nodes)
    arcs = [arc for a, b in substrate.links for arc in ((a, b), (b, a))]

    classes: dict = {}
    for aggregate, layout in zip(aggregates, model.layout):
        app = apps[aggregate.app_index]
        node_mass: dict[int, dict[str, float]] = {}
        for vnf, start, hosts in zip(app.vnfs, layout.node_start, layout.hosts):
            block = solution.values[start:start + len(hosts)]
            node_mass[vnf.id] = {
                node_ids[hosts[j]]: float(block[j])
                for j in np.flatnonzero(block > tolerance)
            }
        arc_flow: dict[tuple[int, int], dict[tuple[str, str], float]] = {}
        for vlink, start in zip(app.links, layout.arc_start):
            block = solution.values[start:start + len(arcs)]
            arc_flow[vlink.key] = {
                arcs[j]: float(block[j])
                for j in np.flatnonzero(block > tolerance)
            }

        patterns, _lost = decompose_class(
            app, aggregate.ingress, node_mass, arc_flow, tolerance
        )
        if patterns:
            allocated = left_sum(p.weight for p in patterns)
            classes[aggregate.class_key] = ClassPlan(
                aggregate=aggregate,
                patterns=patterns,
                rejected_fraction=max(0.0, 1.0 - allocated),
            )
    return Plan(classes=classes, objective=solution.objective)
