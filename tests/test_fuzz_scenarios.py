"""Composed-scenario fuzzer: random chaos schedules vs the invariants.

Hypothesis draws a *scenario descriptor* — a plain-JSON dict naming a
topology (catalog or generated family), a trace kind (including the
adversarial generators), a utilization, a disruption policy and a list
of event blocks with slot offsets. The harness builds one
:class:`~repro.scenarios.events.EventSchedule` per block, combines them
with ``shifted()`` + ``compose()`` — so the composition operator itself
is under fuzz, same-slot collisions included — runs the composed
schedule through **both** embedding engines, and checks every invariant
the dedicated suites pin individually:

* the differential oracle — fast-path and reference results must be
  bit-identical (decisions, preemptions, disruptions, per-slot arrays);
* ``allocated_demand`` matches an independent reconstruction from the
  decision log and never goes negative;
* the capacity invariant — residual + active loads == effective
  capacity on every element when the run ends
  (:func:`~repro.scenarios.events.capacity_invariant_gap`);
* what the ledger keeps beside ``active`` (PREEMPT's element index,
  the sum columns, the rows' ``seq``) is a rebuild from ``active``
  after every slot.

The same property runs at two budgets: a handful of examples in the
fast tier, and the >=200-example ``slow``-marked run that CI executes
in its ``-m slow`` job. The ``ci`` hypothesis profile (conftest.py) is
derandomized, so both runs replay the identical example sequence.

Descriptors are deliberately JSON-serializable: when the fuzzer finds a
bug, hypothesis's shrunk counterexample can be committed verbatim under
``tests/corpus/`` where ``test_corpus_replay`` re-runs every file on
every suite run, forever (regression-corpus policy in docs/TESTING.md).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.quickg import make_quickg
from repro.core.olive import OliveAlgorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.scenarios.events import (
    CapacityDegradation,
    EventSchedule,
    FlashCrowd,
    IngressMigration,
    LinkFailure,
    LinkRecovery,
    NodeDrain,
    NodeRestore,
    capacity_invariant_gap,
)
from repro.sim.engine import simulate
from repro.sim.session import SimulationSession
from repro.workload.request import Request
from tests.conftest import assert_preemptible_is_derived
from tests.test_event_oracle import _assert_event_results_identical
from tests.test_property_invariants import _expected_allocated

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Catalog + one of each generated family, at the families' size floors.
TOPOLOGIES = ("CittaStudi", "tiered-x:26", "waxman:24", "caida-x:24")
TRACES = ("mmpp", "pareto-burst", "ingress-hotspot", "capacity-probe")
ONLINE_SLOTS = 12

#: Injected flash-crowd ids start here — disjoint from any trace id.
_CROWD_ID_BASE = 1_000_000

_scenarios: dict = {}


def _scenario(topology, trace, utilization, seed, with_plan):
    """Build-once cache: hypothesis revisits few distinct scenarios."""
    key = (topology, trace, utilization, seed, with_plan)
    if key not in _scenarios:
        config = ExperimentConfig.test(
            topology=topology,
            trace_kind=trace,
            utilization=utilization,
            history_slots=30,
            online_slots=ONLINE_SLOTS,
            arrivals_per_node=1.0,
            measure_start=2,
            measure_stop=10,
        )
        _scenarios[key] = build_scenario(config, seed, with_plan=with_plan)
    return _scenarios[key]


# -- descriptor -> composed schedule ------------------------------------------


def _block_events(block, scenario, position):
    """The event list for one descriptor block (before shifting)."""
    substrate = scenario.substrate
    links = list(substrate.links)
    nodes = list(substrate.nodes)
    edges = list(substrate.edge_nodes)
    kind = block["kind"]
    slot = block["slot"]
    index = block["index"]
    stop = slot + block["duration"]
    if kind == "flap":
        link = links[index % len(links)]
        return [
            LinkFailure(slot=slot, link=link),
            LinkRecovery(slot=stop, link=link),
        ]
    if kind == "drain":
        node = nodes[index % len(nodes)]
        return [
            NodeDrain(slot=slot, node=node, fraction=block["fraction"]),
            NodeRestore(slot=stop, node=node),
        ]
    if kind == "degrade":
        return [
            CapacityDegradation(
                slot=slot,
                fraction=block["fraction"],
                links=(
                    links[index % len(links)],
                    links[(index + 1) % len(links)],
                ),
                nodes=(nodes[index % len(nodes)],),
            )
        ]
    if kind == "crowd":
        requests = tuple(
            Request(
                arrival=slot,
                id=_CROWD_ID_BASE + 1000 * position + i,
                app_index=(index + i) % len(scenario.apps),
                ingress=edges[(index + i) % len(edges)],
                demand=1.0 + 5.0 * block["fraction"],
                duration=block["duration"],
            )
            for i in range(block["count"])
        )
        return [FlashCrowd(slot=slot, requests=requests)]
    if kind == "migrate":
        return [
            IngressMigration(
                slot=slot,
                source=edges[index % len(edges)],
                target=edges[(index + 1) % len(edges)],
                until=stop,
            )
        ]
    if kind == "stray-recovery":
        # Recovery with no preceding failure: must be a strict no-op.
        return [LinkRecovery(slot=slot, link=links[index % len(links)])]
    raise AssertionError(f"unknown block kind {kind!r}")


def _compose_schedule(descriptor, scenario) -> EventSchedule:
    policy = descriptor["policy"]
    schedules = [
        EventSchedule(
            _block_events(block, scenario, position),
            policy=policy,
            name=block["kind"],
        ).shifted(block["offset"])
        for position, block in enumerate(descriptor["blocks"])
    ]
    return schedules[0].compose(*schedules[1:])


def _check(descriptor) -> None:
    """Run one descriptor through both engines and assert everything."""
    scenario = _scenario(
        descriptor["topology"],
        descriptor["trace"],
        descriptor["utilization"],
        descriptor["seed"],
        with_plan=descriptor["algorithm"] == "OLIVE",
    )
    schedule = _compose_schedule(descriptor, scenario)
    online = scenario.online_requests()

    def make(fast_greedy):
        if descriptor["algorithm"] == "OLIVE":
            return OliveAlgorithm(
                scenario.substrate, scenario.apps, scenario.plan,
                efficiency=scenario.efficiency, use_fast_greedy=fast_greedy,
            )
        return make_quickg(
            scenario.substrate, scenario.apps, scenario.efficiency,
            use_fast_greedy=fast_greedy,
        )

    fast_algorithm = make(True)
    # simulate(), stopped after every slot to look at the ledger.
    session = SimulationSession(
        fast_algorithm, online, ONLINE_SLOTS, events=schedule
    )
    for _ in session:
        assert_preemptible_is_derived(fast_algorithm)
    fast = session.result()
    reference = simulate(make(False), online, ONLINE_SLOTS, events=schedule)

    _assert_event_results_identical(fast, reference)
    assert np.all(fast.allocated_demand >= 0)
    np.testing.assert_allclose(
        fast.allocated_demand, _expected_allocated(fast), rtol=1e-9
    )
    assert capacity_invariant_gap(fast_algorithm) == pytest.approx(
        0.0, abs=1e-6
    )


# -- strategies ---------------------------------------------------------------

#: Bounds chosen so every derived slot (shift + recovery offset) stays
#: inside the 12-slot horizon: 5 + 2 + 3 < 12.
_BLOCKS = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(
            ("flap", "drain", "degrade", "crowd", "migrate",
             "stray-recovery")
        ),
        "slot": st.integers(1, 5),
        "offset": st.integers(0, 2),
        "index": st.integers(0, 63),
        "fraction": st.sampled_from((0.0, 0.25, 0.5)),
        "duration": st.integers(1, 3),
        "count": st.integers(1, 3),
    }
)


@st.composite
def _descriptors(draw):
    # OLIVE needs a plan per scenario; pin its scenario axes so the
    # build-once cache stays small and examples stay sub-second.
    algorithm = draw(
        st.sampled_from(("QUICKG", "QUICKG", "QUICKG", "OLIVE"))
    )
    if algorithm == "OLIVE":
        topology, trace, seed = "CittaStudi", "mmpp", 0
    else:
        topology = draw(st.sampled_from(TOPOLOGIES))
        trace = draw(st.sampled_from(TRACES))
        seed = draw(st.integers(0, 1))
    return {
        "algorithm": algorithm,
        "topology": topology,
        "trace": trace,
        "seed": seed,
        "utilization": draw(st.sampled_from((0.9, 1.3))),
        "policy": draw(st.sampled_from(("preempt", "reroute"))),
        "blocks": draw(st.lists(_BLOCKS, min_size=1, max_size=4)),
    }


# -- the fuzzer ---------------------------------------------------------------


@given(descriptor=_descriptors())
@settings(max_examples=10, deadline=None)
def test_fuzz_composed_scenarios(descriptor):
    """Fast-tier sample of the composed-scenario property."""
    _check(descriptor)


@pytest.mark.slow
@given(descriptor=_descriptors())
@settings(max_examples=200, deadline=None)
def test_fuzz_composed_scenarios_deep(descriptor):
    """The full >=200-example budget CI runs in the slow job."""
    _check(descriptor)


# -- the regression corpus ----------------------------------------------------

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_populated():
    """The corpus directory must never silently empty out."""
    assert len(CORPUS_FILES) >= 3


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_replay(path):
    """Re-run every committed shrunk counterexample, forever."""
    _check(json.loads(path.read_text()))
