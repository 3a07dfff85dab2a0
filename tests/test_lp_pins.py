"""Bit-for-bit pins of the PLAN-VNE LP, its plan, and SLOTOFF's LP results.

Each case hashes what the LP layer hands to HiGHS — objective, bounds,
``A_ub`` / ``A_eq`` in CSR form and both right-hand sides — and what
comes back out of it: the decomposed plan's patterns (node map, link
paths, the bits of each weight) and the LP objective. SLOTOFF, the other
LP consumer, is pinned by the bits of its per-slot resource cost and by
its decisions over a short run.

The digests were recorded before the LP layer stored its rows as numpy
columns, so a builder that reorders a row, drops a zero, or evaluates a
coefficient in another order fails here. A float divergence between
numpy or HiGHS builds fails here too, which is why CI runs this file in
the bit-exact golden step.
"""

from __future__ import annotations

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.baselines.slotoff import SlotOffAlgorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.plan.api import compute_plan
from repro.plan.formulation import PlanVNEConfig, build_plan_vne
from repro.sim.session import SimulationSession
from repro.stats.aggregate import build_aggregate_demand
from repro.utils.rng import child_rng, make_rng

SEED = 0

#: config name → (compiled-LP digest, plan digest).
PINS = {
    "test": (
        "2b2e2dfe5e669e28ede302b270c5eac5a562219b0a1aa2021c5f26bbc1c29de9",
        "980e27f6f6da13d6579cee337f977323fd6b20e6d39a03927842de503895d35f",
    ),
    "gpu": (
        "4aca8a97fe64b5756061d400024da0bfc024fe52d2a9c3c924d33de0083d8545",
        "9141586794c1ede648072f1b8f0c0287ce8773df105dc81e16116c645d3939d6",
    ),
}

SLOTOFF_SLOTS = 6
SLOTOFF_PIN = (
    "53a2db1772cda3e05541a0939c595ad534dc4d6619d17da9f55c717bc569dbd2"
)

CONFIGS = {
    "test": ExperimentConfig.test(),
    "gpu": ExperimentConfig.test(gpu_scenario=True),
}


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _plan_inputs(config: ExperimentConfig):
    """The arguments ``build_scenario`` hands to ``compute_plan``."""
    scenario = build_scenario(config, SEED, with_plan=False)
    aggregates = build_aggregate_demand(
        scenario.trace.history_requests(),
        config.history_slots,
        alpha=config.percentile_alpha,
        rng=child_rng(make_rng(SEED), "bootstrap"),
    )
    return (
        scenario.substrate, scenario.apps, aggregates, scenario.efficiency,
        PlanVNEConfig(num_quantiles=config.num_quantiles),
    )


def _lp_digest(program) -> str:
    compiled = program.compile()
    digest = hashlib.sha256()
    for array in (compiled.objective, compiled.lower, compiled.upper):
        digest.update(np.asarray(array, dtype=np.float64).tobytes())
    for triplets, rhs in (
        (compiled.ub_triplets, compiled.ub_rhs),
        (compiled.eq_triplets, compiled.eq_rhs),
    ):
        data, rows, cols = triplets
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(rhs), compiled.num_variables)
        )
        digest.update(np.asarray(matrix.data, dtype=np.float64).tobytes())
        digest.update(np.asarray(matrix.indices, dtype=np.int64).tobytes())
        digest.update(np.asarray(matrix.indptr, dtype=np.int64).tobytes())
        digest.update(np.asarray(rhs, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _plan_digest(plan) -> str:
    digest = hashlib.sha256()
    for key, class_plan in plan.classes.items():
        digest.update(repr(key).encode())
        for pattern in class_plan.patterns:
            digest.update(repr(sorted(pattern.node_map.items())).encode())
            digest.update(repr(sorted(pattern.link_paths.items())).encode())
            digest.update(_bits(pattern.weight))
    digest.update(_bits(plan.objective))
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(PINS))
def test_compiled_lp_and_plan_match_pin(name):
    inputs = _plan_inputs(CONFIGS[name])
    lp_pin, plan_pin = PINS[name]
    assert _lp_digest(build_plan_vne(*inputs).program) == lp_pin
    assert _plan_digest(compute_plan(*inputs)) == plan_pin


def test_gpu_case_masks_node_variables():
    """The GPU case pins an LP with forbidden placements, not a copy of
    the uniform one: it has fewer node variables per class."""
    substrate, apps, aggregates, efficiency, config = _plan_inputs(
        CONFIGS["gpu"]
    )
    masked = build_plan_vne(
        substrate, apps, aggregates, efficiency, config
    ).program
    unmasked = build_plan_vne(substrate, apps, aggregates, None, config).program
    assert masked.num_variables < unmasked.num_variables


def test_builder_holds_at_most_48_bytes_per_nonzero():
    """What a built PLAN-VNE instance keeps alive is its arrays: per LP
    nonzero, an entry's row, column and coefficient plus a share of the
    per-variable and per-row columns — not names, row objects or
    tuple-keyed lookups (187 B per nonzero when it held those)."""
    inputs = _plan_inputs(CONFIGS["test"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build_plan_vne(*inputs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    compiled = model.program.compile()
    nonzeros = len(compiled.ub_triplets[0]) + len(compiled.eq_triplets[0])
    assert held / nonzeros <= 48


def test_slotoff_costs_and_decisions_match_pin():
    config = ExperimentConfig.test()
    scenario = build_scenario(config, SEED, with_plan=False)
    algorithm = SlotOffAlgorithm(
        scenario.substrate, scenario.apps, scenario.efficiency
    )
    session = SimulationSession(
        algorithm, scenario.online_requests(), config.online_slots
    )
    digest = hashlib.sha256()
    for _ in range(SLOTOFF_SLOTS):
        session.step()
        digest.update(_bits(algorithm.active_cost_per_slot()))
    result = session.result()
    for decision in result.decisions:
        digest.update(repr((decision.request.id, decision.accepted)).encode())
    for request, slot in result.preemptions:
        digest.update(repr((request.id, slot)).encode())
    assert digest.hexdigest() == SLOTOFF_PIN
