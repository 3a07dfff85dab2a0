"""Unit tests for the simulator, metrics, and runner (repro.sim)."""

import numpy as np
import pytest

from repro.baselines.quickg import make_quickg
from repro.baselines.slotoff import SlotOffAlgorithm
from repro.core.olive import Decision
from repro.errors import SimulationError
from repro.plan.pattern import Plan
from repro.sim.engine import SimulationResult, simulate
from repro.sim.metrics import (
    NodeTimeline,
    balance_index,
    cost_breakdown,
    demand_series,
    rejection_rate,
)
from repro.sim.runner import ParallelRunner, confidence_interval
from repro.workload.request import Request
from tests.conftest import make_line_substrate, make_two_vnf_chain


def _request(rid, arrival=0, demand=1.0, duration=3, ingress="edge-a", app=0):
    return Request(
        arrival=arrival, id=rid, app_index=app, ingress=ingress,
        demand=demand, duration=duration,
    )


def _result_from_decisions(decisions, num_slots=10, preemptions=()):
    return SimulationResult(
        algorithm_name="X",
        num_slots=num_slots,
        decisions=decisions,
        preemptions=list(preemptions),
        requested_demand=np.zeros(num_slots),
        allocated_demand=np.zeros(num_slots),
        resource_cost=np.ones(num_slots),
        runtime_seconds=0.0,
    )


class TestSimulate:
    def test_every_request_gets_a_decision(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        requests = [_request(i, arrival=i % 5) for i in range(20)]
        result = simulate(quickg, requests, 10)
        assert len(result.decisions) == 20
        assert set(result.decision_by_id) == {r.id for r in requests}

    def test_departures_release_capacity(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        # One request active slots 0-2; allocated demand must drop at 3.
        requests = [_request(1, arrival=0, duration=3)]
        result = simulate(quickg, requests, 6)
        assert result.allocated_demand[0] == pytest.approx(1.0)
        assert result.allocated_demand[2] == pytest.approx(1.0)
        assert result.allocated_demand[3] == pytest.approx(0.0)

    def test_requested_demand_series(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        requests = [
            _request(1, arrival=2, demand=4.0),
            _request(2, arrival=2, demand=1.0),
        ]
        result = simulate(quickg, requests, 5)
        assert result.requested_demand[2] == pytest.approx(5.0)
        assert result.requested_demand[1] == 0.0

    def test_arrival_beyond_horizon_rejected(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        with pytest.raises(SimulationError, match="beyond"):
            simulate(quickg, [_request(1, arrival=99)], 10)

    def test_batch_algorithm_drives_run_slot(self, line_substrate, chain_app):
        slotoff = SlotOffAlgorithm(line_substrate, [chain_app])
        requests = [_request(i, arrival=i % 3) for i in range(6)]
        result = simulate(slotoff, requests, 5)
        assert len(result.decisions) == 6
        assert result.algorithm_name == "SLOTOFF"

    def test_runtime_is_recorded(self, line_substrate, chain_app):
        quickg = make_quickg(line_substrate, [chain_app])
        result = simulate(quickg, [_request(1)], 2)
        assert result.runtime_seconds > 0

    def test_on_slot_hook_called_after_departures(self, line_substrate, chain_app):
        """The optional on_slot hook fires once per slot, after releases."""
        calls: list[tuple[str, int]] = []
        quickg = make_quickg(line_substrate, [chain_app])
        original_release = quickg.release

        def tracking_release(request):
            calls.append(("release", request.id))
            original_release(request)

        quickg.release = tracking_release
        quickg.on_slot = lambda t: calls.append(("slot", t))

        requests = [_request(1, arrival=0, duration=2)]
        simulate(quickg, requests, 4)
        slots = [c for c in calls if c[0] == "slot"]
        assert slots == [("slot", 0), ("slot", 1), ("slot", 2), ("slot", 3)]
        # Request 1 departs at slot 2: its release precedes that slot hook.
        assert calls.index(("release", 1)) < calls.index(("slot", 2))


class TestSimulationResult:
    def test_derived_fields_computed_when_omitted(self):
        requests = [_request(1), _request(2)]
        decisions = [
            Decision(request=requests[0], accepted=True),
            Decision(request=requests[1], accepted=False),
        ]
        result = _result_from_decisions(
            decisions, preemptions=[(requests[0], 3)]
        )
        assert result.decision_by_id == {1: decisions[0], 2: decisions[1]}
        assert result.preempted_ids == {1}
        assert result.num_requests == 2
        assert result.disruptions == []
        assert result.disrupted_ids == set()

    def test_throughput_zero_on_zero_runtime(self):
        result = _result_from_decisions(
            [Decision(request=_request(1), accepted=True)]
        )
        assert result.runtime_seconds == 0.0
        assert result.slots_per_second == 0.0
        assert result.requests_per_second == 0.0

    def test_throughput_on_real_runtime(self):
        result = _result_from_decisions(
            [Decision(request=_request(i), accepted=True) for i in range(4)]
        )
        result.runtime_seconds = 0.5
        assert result.slots_per_second == pytest.approx(20.0)
        assert result.requests_per_second == pytest.approx(8.0)


class TestRejectionRate:
    def test_counts_rejections_and_preemptions(self):
        requests = [_request(i) for i in range(4)]
        decisions = [
            Decision(request=requests[0], accepted=True),
            Decision(request=requests[1], accepted=False),
            Decision(request=requests[2], accepted=True),
            Decision(request=requests[3], accepted=True),
        ]
        result = _result_from_decisions(
            decisions, preemptions=[(requests[2], 1)]
        )
        # 1 rejected + 1 preempted of 4.
        assert rejection_rate(result) == pytest.approx(0.5)

    def test_window_filters_by_arrival(self):
        decisions = [
            Decision(request=_request(1, arrival=1), accepted=False),
            Decision(request=_request(2, arrival=8), accepted=True),
        ]
        result = _result_from_decisions(decisions)
        assert rejection_rate(result, (0, 5)) == pytest.approx(1.0)
        assert rejection_rate(result, (5, 10)) == pytest.approx(0.0)

    def test_empty_window_is_zero(self):
        assert rejection_rate(_result_from_decisions([])) == 0.0

    def test_invalid_window_raises(self):
        result = _result_from_decisions([])
        with pytest.raises(SimulationError):
            rejection_rate(result, (5, 2))


class TestCostBreakdown:
    def test_resource_plus_rejection(self, line_substrate, chain_app):
        accepted = _request(1, arrival=0)
        rejected = _request(2, arrival=0, demand=2.0, duration=4)
        decisions = [
            Decision(request=accepted, accepted=True),
            Decision(request=rejected, accepted=False),
        ]
        result = _result_from_decisions(decisions, num_slots=10)
        costs = cost_breakdown(result, line_substrate, [chain_app], (0, 10))
        assert costs.resource == pytest.approx(10.0)  # 1.0 per slot stub
        # ψ = 20·50 + 10·1·3 = 1030; Ψ = ψ·d·T = 1030·2·4.
        assert costs.rejection == pytest.approx(1030.0 * 8.0)
        assert costs.total == costs.resource + costs.rejection


class TestBalanceIndex:
    def test_perfectly_balanced(self):
        decisions = []
        for node in ("a", "b"):
            for app in (0, 1):
                request = _request(
                    len(decisions), ingress=node, app=app
                )
                decisions.append(Decision(request=request, accepted=False))
        result = _result_from_decisions(decisions)
        assert balance_index(result, num_apps=2) == pytest.approx(1.0)

    def test_fully_unbalanced(self):
        # All rejections concentrated on one of two apps → Jain = 1/2.
        decisions = [
            Decision(request=_request(i, ingress="a", app=0), accepted=False)
            for i in range(5)
        ]
        result = _result_from_decisions(decisions)
        assert balance_index(result, num_apps=2) == pytest.approx(0.5)

    def test_no_rejections_is_perfect(self):
        decisions = [
            Decision(request=_request(i), accepted=True) for i in range(3)
        ]
        result = _result_from_decisions(decisions)
        assert balance_index(result, num_apps=4) == pytest.approx(1.0)

    def test_empty_result(self):
        assert balance_index(_result_from_decisions([]), 4) == 1.0


class TestDemandSeries:
    def test_window_slicing(self):
        result = _result_from_decisions([], num_slots=10)
        result.requested_demand[:] = np.arange(10)
        series = demand_series(result, (3, 6))
        assert series["slots"].tolist() == [3, 4, 5]
        assert series["requested"].tolist() == [3.0, 4.0, 5.0]


class TestNodeTimeline:
    def test_statuses_and_guarantee(self, line_substrate, chain_app):
        requests = [
            _request(1, arrival=0),
            _request(2, arrival=1),
            _request(3, arrival=2),
            _request(4, arrival=3, ingress="edge-b"),
        ]
        decisions = [
            Decision(request=requests[0], accepted=True, planned=True),
            Decision(request=requests[1], accepted=True, borrowed=True),
            Decision(request=requests[2], accepted=False),
            Decision(request=requests[3], accepted=True, planned=True),
        ]
        result = _result_from_decisions(
            decisions, preemptions=[(requests[1], 2)]
        )
        timeline = NodeTimeline.collect(result, Plan(), "edge-a", num_apps=1)
        counts = timeline.counts(0)
        assert counts == {"guaranteed": 1, "preempted": 1, "rejected": 1}
        # edge-b requests excluded; empty plan → zero guarantee.
        assert timeline.guaranteed_demand[0] == 0.0
        # Active demand counts accepted requests only.
        assert timeline.active_demand[0][0] == pytest.approx(1.0)
        assert timeline.active_demand[0][1] == pytest.approx(2.0)

    def test_preempted_demand_truncated_at_preemption_slot(self):
        # Accepted at slot 0 with duration 8, preempted at slot 3: its
        # demand occupies [0, 3) only — the substrate released it there.
        victim = _request(1, arrival=0, demand=5.0, duration=8)
        survivor = _request(2, arrival=1, demand=2.0, duration=8)
        decisions = [
            Decision(request=victim, accepted=True),
            Decision(request=survivor, accepted=True, planned=True),
        ]
        result = _result_from_decisions(
            decisions, preemptions=[(victim, 3)]
        )
        timeline = NodeTimeline.collect(result, Plan(), "edge-a", num_apps=1)
        active = timeline.active_demand[0]
        np.testing.assert_allclose(active[:3], [5.0, 7.0, 7.0])
        # After the preemption slot only the survivor remains active.
        np.testing.assert_allclose(active[3:9], [2.0] * 6)

    def test_preemption_beyond_departure_is_harmless(self):
        request = _request(1, arrival=0, demand=4.0, duration=2)
        decisions = [Decision(request=request, accepted=True)]
        result = _result_from_decisions(
            decisions, preemptions=[(request, 5)]
        )
        timeline = NodeTimeline.collect(result, Plan(), "edge-a", num_apps=1)
        np.testing.assert_allclose(
            timeline.active_demand[0][:3], [4.0, 4.0, 0.0]
        )


class TestRunner:
    def test_confidence_interval_basics(self):
        interval = confidence_interval([1.0, 2.0, 3.0])
        assert interval.mean == pytest.approx(2.0)
        assert interval.low < 2.0 < interval.high
        assert interval.count == 3

    def test_single_sample_has_zero_width(self):
        interval = confidence_interval([5.0])
        assert interval.half_width == 0.0

    def test_empty_sample_raises(self):
        with pytest.raises(SimulationError):
            confidence_interval([])

    def test_overlap(self):
        a = confidence_interval([1.0, 2.0, 3.0])
        b = confidence_interval([2.0, 3.0, 4.0])
        c = confidence_interval([100.0, 101.0])
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_repeat_aggregates_metrics(self):
        def run(seed: int):
            return {"metric": float(seed), "constant": 1.0}

        summary = ParallelRunner(jobs=1).repeat(run, repetitions=5, base_seed=10)
        assert summary["metric"].mean == pytest.approx(12.0)
        assert summary["constant"].half_width == 0.0

    def test_repeat_rejects_inconsistent_keys(self):
        def run(seed: int):
            return {"a": 1.0} if seed == 0 else {"b": 1.0}

        with pytest.raises(SimulationError, match="inconsistent"):
            ParallelRunner(jobs=1).repeat(run, repetitions=2)

    def test_repeat_needs_repetitions(self):
        with pytest.raises(SimulationError):
            ParallelRunner(jobs=1).repeat(lambda s: {}, repetitions=0)
