"""Bit-for-bit pins of the generated request streams and their aggregates.

Each registered trace kind is hashed request by request — arrival, id,
application, ingress, the bits of the demand and the duration — over
history then online, on a small CittaStudi trace. The aggregated classes
PLAN-VNE receives from ``build_scenario`` are hashed three ways: as
built, with the Fig. 13 ``plan_utilization`` rescale, and with the
Fig. 14 ``shift_plan_ingress`` remap.

The digests were recorded before the trace was stored as numpy columns,
so a generator that draws in another order, or an aggregation that adds
in another order, fails here. A numpy RNG-stream divergence between
versions fails here first, which is why CI runs this file in the
bit-exact golden step.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.experiments.scenario as scenario_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.plan.pattern import Plan
from repro.registry import app_mix_registry, trace_registry
from repro.substrate.topologies import make_topology
from repro.utils.rng import child_rng, make_rng
from repro.workload.trace import TraceConfig

#: trace kind → sha256 of its requests, history then online.
TRACE_PINS = {
    "mmpp": (
        "076fcbb112c5ab045e22268a73701399"
        "d4df437576c32a261feb7f03abc229e8"
    ),
    "caida": (
        "235b72c7cea67a4d10985ed69b5c74c8"
        "a74705a28da12db09f8ac4e163e2aaee"
    ),
    "diurnal": (
        "595e36e2dd1c8bf015cce4b0f4ad9a53"
        "b90fe26d95ec2abc5d3cf7b93fd77371"
    ),
    "pareto-burst": (
        "eb2e6b25b8cfba2af7fc883eab515c47"
        "4b4cf5dd2d10f0ca718a6ea5271228ad"
    ),
    "ingress-hotspot": (
        "62d8a15be1bf0b0e5eba961edcef5892"
        "a29b0d6e7adee479c3fea7d9e41a971b"
    ),
    "capacity-probe": (
        "76ed473691c2f9b33571a731ae5e8b0f"
        "1d62401e4c98c73faef35d4cb818cead"
    ),
}

#: perturbation → sha256 of ``build_scenario``'s aggregated classes.
AGGREGATE_PINS = {
    "plain": (
        "d5deab18af8fa7d7482376e6ae6cc99d"
        "0fbcfc0c53b2ffcb69de5034c637da3b"
    ),
    "plan_utilization=1.2": (
        "490c5990cb9be27c6b9e094ec43f9a99"
        "cf9925d659a5d54305e057aceccede39"
    ),
    "shift_plan_ingress": (
        "a11b9f0bbe5b85c4045e34b5d08c84da"
        "118d02223a41c831d641676209a5a498"
    ),
}

PERTURBATIONS = {
    "plain": {},
    "plan_utilization=1.2": {"plan_utilization": 1.2},
    "shift_plan_ingress": {"shift_plan_ingress": True},
}


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for r in trace.history_requests() + trace.online_requests():
        fields = (
            r.arrival, r.id, r.app_index, r.ingress, r.demand.hex(),
            r.duration,
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()


def aggregate_digest(aggregates) -> str:
    digest = hashlib.sha256()
    for a in aggregates:
        digest.update(repr((a.app_index, a.ingress, a.demand.hex())).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(TRACE_PINS))
def test_trace_pin(kind):
    rng = make_rng(0)
    substrate = make_topology("CittaStudi")
    apps = app_mix_registry.create("standard", child_rng(rng, "apps"))
    config = TraceConfig(history_slots=30, online_slots=20)
    trace = trace_registry.create(
        kind, substrate, apps, config, child_rng(rng, "trace")
    )
    assert trace_digest(trace) == TRACE_PINS[kind]


@pytest.mark.parametrize("perturbation", sorted(AGGREGATE_PINS))
def test_aggregate_pin(monkeypatch, perturbation):
    seen = []
    build_aggregate_demand = scenario_module.build_aggregate_demand

    def aggregate(*args, **kwargs):
        seen.append(build_aggregate_demand(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(scenario_module, "build_aggregate_demand", aggregate)
    # The plan itself is pinned by tests/test_lp_pins.py; only its input
    # is pinned here.
    monkeypatch.setattr(scenario_module, "compute_plan", lambda *a: Plan())
    build_scenario(ExperimentConfig.test(), 0, **PERTURBATIONS[perturbation])
    assert len(seen) == 1
    assert aggregate_digest(seen[0]) == AGGREGATE_PINS[perturbation]
