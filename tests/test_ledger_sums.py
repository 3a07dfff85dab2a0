"""The ledger's per-slot sums against a plain-loop twin.

``active_demand()`` and ``active_cost_per_slot()`` read two columns the
ledger keeps in allocation order (an evicted row reads 0.0 until a
compaction drops it) and fold them left to right. The twin is the loop
they replaced: walk ``active`` and ``total += x``. The two must agree
with ``==`` — after every slot of real runs, and after every step of
random commit / depart / reroute / plan-switch interleavings, including
the compactions they force.

The fold order is pinned too: built-in ``sum()`` of floats compensates
from CPython 3.12 on, so a sum written with it would give other last
bits on 3.12 than on the 3.10/3.11 the goldens were recorded on.
"""

from __future__ import annotations

import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import resolve_events
from repro.baselines.noderank import NodeRankAlgorithm
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.core.ledger import left_fold
from repro.core.olive import OliveAlgorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario, make_algorithm
from repro.sim.session import SimulationSession
from tests.conftest import (
    assert_preemptible_is_derived,
    make_line_substrate,
    make_two_vnf_chain,
)
from tests.test_core_olive import _plan_at_transport, _request

#: Ten 0.1s: a left-to-right fold gives 0.9999999999999999, a
#: compensated sum (``math.fsum``, ``sum()`` on CPython >= 3.12) 1.0.
TENTHS = [0.1] * 10
FOLDED = 0.9999999999999999


def reference_sums(algorithm) -> tuple[float, float]:
    """``(demand, cost)`` of the active rows by the plain loop."""
    demand = cost = 0.0
    for allocation in algorithm.active.values():
        demand += allocation.request.demand
        cost += allocation.cost_per_slot
    return demand, cost


class TestSumsTwin:
    """Every slot of an overloaded run under a rerouting blackout, on
    each per-request ledger: the sums equal the twin's, and so do the
    per-slot figures the session records."""

    @pytest.fixture(scope="class")
    def overloaded(self):
        return build_scenario(ExperimentConfig.test(utilization=1.4), seed=0)

    @pytest.mark.parametrize(
        "algorithm", ["OLIVE", "QUICKG", "FULLG", "NODERANK"]
    )
    def test_after_every_slot(self, overloaded, algorithm):
        if algorithm == "NODERANK":  # not registered: built by hand
            ledger = NodeRankAlgorithm(
                overloaded.substrate, overloaded.apps, overloaded.efficiency
            )
        else:
            ledger = make_algorithm(algorithm, overloaded)
        session = SimulationSession(
            ledger, overloaded.online_requests(),
            overloaded.config.online_slots,
            events=resolve_events("blackout", overloaded, 0, "reroute"),
        )
        evicted = 0
        for report in session:
            demand, cost = reference_sums(ledger)
            assert ledger.active_demand() == demand
            assert ledger.active_cost_per_slot() == cost
            assert report.allocated_demand == demand
            assert report.resource_cost == cost
            evicted += len(report.departures) + len(report.preempted)
        assert evicted and session.result().num_events


class TestSumsUnderInterleavings:
    """Random interleavings on a small OLIVE ledger with a plan: planned,
    borrowed and greedy rows, preemptions, departures, reroutes and plan
    switches. After every step the derived state is a rebuild from
    ``active`` (``assert_preemptible_is_derived`` holds the plain-loop
    sums twin); the run ends by departing every row, which compacts the
    columns to nothing."""

    step = st.one_of(
        st.tuples(
            st.just("offer"),
            st.floats(0.05, 6.0, allow_nan=False),
            st.sampled_from(["edge-a", "edge-b"]),
        ),
        st.tuples(st.just("depart"), st.integers(0, 63), st.none()),
        st.tuples(st.just("reroute"), st.integers(0, 63), st.none()),
        st.tuples(st.just("switch"), st.none(), st.none()),
    )

    @given(steps=st.lists(step, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_derived_state_after_every_step(self, steps):
        olive = OliveAlgorithm(
            make_line_substrate(node_capacity=400.0, link_capacity=300.0),
            [make_two_vnf_chain()],
            _plan_at_transport(demand=20.0),
        )
        next_id = 0
        for op, value, ingress in steps:
            if op == "offer":
                olive.process(_request(next_id, demand=value, ingress=ingress))
                next_id += 1
            elif op == "switch":
                olive.switch_plan(_plan_at_transport(demand=20.0))
            elif olive.active:
                rows = list(olive.active.values())
                request = rows[value % len(rows)].request
                olive.release(request)
                if op == "reroute":
                    olive.reroute(request)
            assert_preemptible_is_derived(olive)
        for allocation in list(olive.active.values()):
            olive.release(allocation.request)
            assert_preemptible_is_derived(olive)
        assert not olive.active and not olive._demand and not olive._cost
        assert olive.active_demand() == olive.active_cost_per_slot() == 0.0

    def test_compaction_keeps_allocation_order(self, chain_app):
        """Departing most rows compacts the columns; the survivors keep
        their relative order and a later row still folds last."""
        olive = OliveAlgorithm(
            make_line_substrate(node_capacity=1e4, link_capacity=1e4),
            [chain_app], _plan_at_transport(demand=20.0),
        )
        requests = [_request(i, demand=0.1 + i / 7) for i in range(12)]
        for request in requests:
            olive.process(request)
        for request in requests[:9]:
            olive.release(request)
        assert len(olive._demand) < 12  # compacted
        olive.process(_request(99, demand=0.3))
        assert list(olive.active) == [9, 10, 11, 99]
        assert_preemptible_is_derived(olive)


class TestLeftFold:
    """The sums fold left to right on every interpreter."""

    def test_left_fold_is_not_compensated(self):
        assert math.fsum(TENTHS) == 1.0
        assert left_fold(array("d", TENTHS)) == FOLDED
        assert left_fold(array("d")) == 0.0

    def test_ledger_sums_fold_left_to_right(self, chain_app):
        olive = OliveAlgorithm(
            make_line_substrate(node_capacity=1e4, link_capacity=1e4),
            [chain_app], _plan_at_transport(demand=20.0),
        )
        for rid, demand in enumerate(TENTHS):
            assert olive.process(_request(rid, demand=demand)).accepted
        assert olive.active_demand() == FOLDED

    def test_slotoff_sum_folds_left_to_right(self, line_substrate, chain_app):
        slotoff = SlotOffAlgorithm(line_substrate, [chain_app])
        slotoff.active = {
            rid: _request(rid, demand=demand)
            for rid, demand in enumerate(TENTHS)
        }
        assert slotoff.active_demand() == FOLDED
