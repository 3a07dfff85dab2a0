"""QUICKG: OLIVE with an empty plan (Sec. IV-A).

"QUICKG runs OLIVE with an empty plan, resorting to greedily allocating
each request, applying the heuristic approach of GREEDYEMBED." With no
plan there are no planned allocations, hence nothing to preempt for, and
the collocation restriction is kept strict (the paper excludes QUICKG from
the GPU study because of it).
"""

from __future__ import annotations

from repro.apps.application import Application
from repro.apps.efficiency import EfficiencyModel
from repro.core.olive import OliveAlgorithm
from repro.plan.api import empty_plan
from repro.substrate.network import SubstrateNetwork


def make_quickg(
    substrate: SubstrateNetwork,
    apps: list[Application],
    efficiency: EfficiencyModel | None = None,
    use_fast_greedy: bool = True,
) -> OliveAlgorithm:
    """Build the QUICKG baseline for one simulation run."""
    return OliveAlgorithm(
        substrate=substrate,
        apps=apps,
        plan=empty_plan(),
        efficiency=efficiency,
        enable_preemption=False,
        allow_split_greedy=False,
        name="QUICKG",
        use_fast_greedy=use_fast_greedy,
    )
