"""Differential oracle for the dynamic-event subsystem.

There is no ground truth for scenarios the paper never ran — but there
are *two independent engines* that must agree on every decision: the
indexed fast path (:mod:`repro.core.greedy`, routing over the live
residual list) and the frozen scalar reference
(:mod:`repro.core.greedy_reference`). This module extends the
``test_fastpath_equivalence`` contract to *mutated* substrates: whole
simulations under every registered event profile, run through both
engines, must produce bit-identical results — decisions, embeddings,
preemptions, disruptions and per-slot metric arrays.

Capacity events shift the same residuals allocations do; a route that
read a stale link residual after a failure/recovery would mis-route
exactly one request — and show up here as a divergence.

Since the streaming-session redesign the oracle has a third leg
(:class:`TestSessionOracle`): for every registered algorithm × event
profile, a ``step()``-driven :class:`~repro.sim.session.
SimulationSession` and a session checkpointed at a mid-run slot and
resumed must both be bit-identical to the batch ``simulate()`` run of
the same stream — decisions, preemptions, disruptions, per-slot arrays
and the event tally.
"""

from __future__ import annotations

import gc
import io
import pickle
import pickletools
import random
from enum import Enum
from types import BuiltinFunctionType, FunctionType, ModuleType

import numpy as np
import pytest

from repro.api import resolve_events
from repro.baselines.noderank import NodeRankAlgorithm
from repro.baselines.quickg import make_quickg
from repro.core.olive import OliveAlgorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import build_scenario
from repro.experiments.scenario import make_algorithm
from repro.registry import event_profile_registry
from repro.registry import algorithm_registry
from repro.scenarios.events import (
    EventSchedule,
    LinkFailure,
    LinkRecovery,
    NodeDrain,
    NodeRestore,
    capacity_invariant_gap,
)
from repro.serve.service import EmbedderService
from repro.sim.engine import simulate
from repro.sim.session import SessionSnapshot, SimulationSession
from repro.workload.request import Request
from tests.conftest import MUTABLE_CONTAINERS, repro_module_bindings
from tests.test_fastpath_equivalence import assert_results_identical

#: Every registered profile is part of the oracle contract; a new profile
#: registered in repro.scenarios.profiles is picked up automatically.
ALL_PROFILES = event_profile_registry.names()


def _assert_event_results_identical(fast, reference) -> None:
    assert_results_identical(fast, reference)
    assert fast.disruptions == reference.disruptions
    assert fast.disrupted_ids == reference.disrupted_ids
    assert fast.num_events == reference.num_events


def _run_both_with_events(scenario, make_algorithm, schedule):
    online = scenario.online_requests()
    slots = scenario.config.online_slots
    fast = simulate(make_algorithm(True), online, slots, events=schedule)
    reference = simulate(make_algorithm(False), online, slots, events=schedule)
    return fast, reference


class TestEventOracle:
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize("policy", ["preempt", "reroute"])
    def test_quickg_bit_identical_under_profile(self, profile, policy):
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.4), seed=11, with_plan=False
        )
        schedule = resolve_events(profile, scenario, 11, policy)
        fast, reference = _run_both_with_events(
            scenario,
            lambda fast_greedy: make_quickg(
                scenario.substrate, scenario.apps, scenario.efficiency,
                use_fast_greedy=fast_greedy,
            ),
            schedule,
        )
        _assert_event_results_identical(fast, reference)

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_olive_bit_identical_under_profile(self, profile):
        """OLIVE adds plan guidance, borrowing and plan-preemption on top
        of the greedy engines — all of it must survive substrate events."""
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.4), seed=12
        )
        schedule = resolve_events(profile, scenario, 12, "reroute")
        fast, reference = _run_both_with_events(
            scenario,
            lambda fast_greedy: OliveAlgorithm(
                scenario.substrate, scenario.apps, scenario.plan,
                efficiency=scenario.efficiency,
                use_fast_greedy=fast_greedy,
            ),
            schedule,
        )
        _assert_event_results_identical(fast, reference)

    def test_olive_iris_blackout_bit_identical(self):
        """The larger Iris substrate under the most destructive profile."""
        scenario = build_scenario(
            ExperimentConfig.test(topology="Iris", utilization=1.4), seed=13
        )
        schedule = resolve_events("blackout", scenario, 13, "preempt")
        fast, reference = _run_both_with_events(
            scenario,
            lambda fast_greedy: OliveAlgorithm(
                scenario.substrate, scenario.apps, scenario.plan,
                efficiency=scenario.efficiency,
                use_fast_greedy=fast_greedy,
            ),
            schedule,
        )
        assert fast.num_events > 0
        _assert_event_results_identical(fast, reference)

    def test_gpu_two_host_bit_identical_under_events(self):
        """The generalized two-group greedy with capacity churn."""
        scenario = build_scenario(
            ExperimentConfig.test(gpu_scenario=True, app_mix="gpu"), seed=14
        )
        schedule = resolve_events("link-flap", scenario, 14, "reroute")
        fast, reference = _run_both_with_events(
            scenario,
            lambda fast_greedy: OliveAlgorithm(
                scenario.substrate, scenario.apps, scenario.plan,
                efficiency=scenario.efficiency,
                use_fast_greedy=fast_greedy,
            ),
            schedule,
        )
        _assert_event_results_identical(fast, reference)

    def test_dense_link_flapping_bit_identical(self):
        """Constant capacity churn: a link fails or recovers every slot,
        and every route after it must see the shifted residual."""
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.2), seed=15, with_plan=False
        )
        links = list(scenario.substrate.links)
        events = []
        for slot in range(1, scenario.config.online_slots - 1):
            link = links[slot % len(links)]
            if slot % 2:
                events.append(LinkFailure(slot=slot, link=link))
            else:
                events.append(LinkRecovery(slot=slot, link=link))
        schedule = EventSchedule(events, policy="reroute")
        fast, reference = _run_both_with_events(
            scenario,
            lambda fast_greedy: make_quickg(
                scenario.substrate, scenario.apps, scenario.efficiency,
                use_fast_greedy=fast_greedy,
            ),
            schedule,
        )
        _assert_event_results_identical(fast, reference)

    def test_node_churn_bit_identical(self):
        """Node-capacity events exercise the node-array revision path."""
        scenario = build_scenario(
            ExperimentConfig.test(utilization=1.4), seed=16, with_plan=False
        )
        nodes = list(scenario.substrate.nodes)
        events = []
        for slot in range(2, scenario.config.online_slots - 2, 3):
            node = nodes[slot % len(nodes)]
            events.append(NodeDrain(slot=slot, node=node, fraction=0.3))
            events.append(NodeRestore(slot=slot + 2, node=node))
        schedule = EventSchedule(events, policy="preempt")
        fast, reference = _run_both_with_events(
            scenario,
            lambda fast_greedy: make_quickg(
                scenario.substrate, scenario.apps, scenario.efficiency,
                use_fast_greedy=fast_greedy,
            ),
            schedule,
        )
        assert fast.num_events == reference.num_events > 0
        _assert_event_results_identical(fast, reference)

    def test_disruptions_actually_happen_somewhere(self):
        """Meta-check: the oracle must not pass vacuously — at least one
        profile at this scale must produce real disruptions."""
        total = 0
        for profile in ALL_PROFILES:
            scenario = build_scenario(
                ExperimentConfig.test(utilization=1.4), seed=11,
                with_plan=False,
            )
            schedule = resolve_events(profile, scenario, 11, "preempt")
            algorithm = make_quickg(
                scenario.substrate, scenario.apps, scenario.efficiency
            )
            result = simulate(
                algorithm, scenario.online_requests(),
                scenario.config.online_slots, events=schedule,
            )
            total += len(result.disruptions)
        assert total > 0

    def test_allocated_demand_never_negative_under_events(self):
        for profile in ALL_PROFILES:
            scenario = build_scenario(
                ExperimentConfig.test(utilization=1.4), seed=17,
                with_plan=False,
            )
            schedule = resolve_events(profile, scenario, 17, "reroute")
            algorithm = make_quickg(
                scenario.substrate, scenario.apps, scenario.efficiency
            )
            result = simulate(
                algorithm, scenario.online_requests(),
                scenario.config.online_slots, events=schedule,
            )
            assert np.all(result.allocated_demand >= 0), profile


# -- the session leg ----------------------------------------------------------

#: Every registered algorithm is part of the session-oracle contract.
ALL_ALGORITHMS = algorithm_registry.names()

#: SLOTOFF's per-slot LP dominates wall-clock; a smaller horizon keeps
#: its 6-profile sweep inside the slow tier's budget without weakening
#: the contract (events still fire and strand allocations).
_SESSION_CONFIGS = {
    "SLOTOFF": ExperimentConfig.test(
        online_slots=10, measure_start=2, measure_stop=8, history_slots=60,
        utilization=1.4, arrivals_per_node=4.0, num_quantiles=4,
    ),
    None: ExperimentConfig.test(utilization=1.4),
}

_SESSION_SCENARIOS: dict = {}


def _session_scenario(algorithm_name):
    """One planned scenario per config shape, shared across profiles."""
    config = _SESSION_CONFIGS.get(algorithm_name, _SESSION_CONFIGS[None])
    key = id(config)
    if key not in _SESSION_SCENARIOS:
        _SESSION_SCENARIOS[key] = build_scenario(config, seed=21)
    return _SESSION_SCENARIOS[key]


def _assert_session_identical(streamed, batch) -> None:
    _assert_event_results_identical(streamed, batch)
    assert streamed.requested_demand.tolist() == (
        batch.requested_demand.tolist()
    )


def _check_step_and_restore(algorithm_name: str, profile: str) -> None:
    """Step-driven and checkpoint/restored sessions ≡ batch simulate()."""
    scenario = _session_scenario(algorithm_name)
    slots = scenario.config.online_slots
    online = scenario.online_requests()
    schedule = resolve_events(profile, scenario, 21, "preempt")

    batch = simulate(
        make_algorithm(algorithm_name, scenario), online, slots,
        events=schedule,
    )

    session = SimulationSession(
        make_algorithm(algorithm_name, scenario), online, slots,
        events=schedule,
    )
    # Deterministic "random" checkpoint slot, different per combination.
    split = random.Random(f"{algorithm_name}:{profile}").randrange(
        1, slots - 1
    )
    session.run_until(split)
    snapshot = session.snapshot()
    session.run_until(slots)
    _assert_session_identical(session.result(), batch)

    resumed = SimulationSession.restore(snapshot)
    assert resumed.clock == split
    resumed.run_until(slots)
    _assert_session_identical(resumed.result(), batch)


def _check_pickle_round_trip(algorithm_name: str, profile: str) -> None:
    """Nothing unpicklable or checkpoint-stale rides the session
    pickle: ``pickle`` itself refuses the first, and a snapshot
    serialized with ``to_bytes()`` mid-run, revived with
    ``from_bytes()`` and resumed must continue bit-identically to both
    the uninterrupted session and the batch ``simulate()`` run.
    """
    scenario = _session_scenario(algorithm_name)
    slots = scenario.config.online_slots
    online = scenario.online_requests()
    schedule = resolve_events(profile, scenario, 21, "preempt")

    batch = simulate(
        make_algorithm(algorithm_name, scenario), online, slots,
        events=schedule,
    )

    session = SimulationSession(
        make_algorithm(algorithm_name, scenario), online, slots,
        events=schedule,
    )
    # A different deterministic split than the restore leg, so the two
    # checks cover distinct checkpoint slots per combination — and a
    # checkpoint at every boundary up to it, so the payload that is
    # resumed was assembled the way a per-slot checkpointer assembles
    # it: sealed segments and allocation bytes carried over from earlier
    # checkpoints, across whatever the events did in between.
    split = random.Random(f"pickle:{algorithm_name}:{profile}").randrange(
        1, slots - 1
    )
    for _ in range(split):
        session.step()
        payload = session.snapshot().to_bytes()
    session.run_until(slots)
    _assert_session_identical(session.result(), batch)

    revived = SessionSnapshot.from_bytes(payload)
    resumed = SimulationSession.restore(revived)
    assert resumed.clock == split
    resumed.run_until(slots)
    _assert_session_identical(resumed.result(), batch)


class TestSessionOracle:
    """Streaming sessions against the batch engine, all algorithms."""

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize(
        "algorithm",
        [name for name in ALL_ALGORITHMS if name in ("OLIVE", "QUICKG")],
    )
    def test_core_algorithms_step_and_restore(self, algorithm, profile):
        _check_step_and_restore(algorithm, profile)

    @pytest.mark.slow
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize(
        "algorithm",
        [name for name in ALL_ALGORITHMS if name not in ("OLIVE", "QUICKG")],
    )
    def test_remaining_algorithms_step_and_restore(self, algorithm, profile):
        _check_step_and_restore(algorithm, profile)


    def test_noderank_reroutes_and_restores_under_link_flap(self):
        """What NODERANK inherits from the ledger rather than writes:
        capacity events, rerouting of what they strand, the invariant
        audit, and a checkpoint a restored session continues from."""
        scenario = _session_scenario(None)
        slots = scenario.config.online_slots
        schedule = resolve_events("link-flap", scenario, 21, "reroute")

        def noderank():
            return NodeRankAlgorithm(
                scenario.substrate, scenario.apps, scenario.efficiency
            )

        session = SimulationSession(
            noderank(), scenario.online_requests(), slots, events=schedule
        )
        gaps = []
        for t in range(slots):
            session.step()
            gaps.append(capacity_invariant_gap(session.algorithm))
            if t + 1 == slots // 2:
                snapshot = session.snapshot()
        assert max(gaps) == pytest.approx(0.0, abs=1e-6)
        undisturbed = session.result()
        assert undisturbed.num_events > 0

        resumed = SimulationSession.restore(snapshot)
        assert resumed.clock == slots // 2
        resumed.run_until(slots)
        _assert_session_identical(resumed.result(), undisturbed)
        assert capacity_invariant_gap(resumed.algorithm) == gaps[-1]
        batch = simulate(
            noderank(), scenario.online_requests(), slots, events=schedule
        )
        _assert_session_identical(undisturbed, batch)


class TestSnapshotPickleRoundTrip:
    """Serialized checkpoints, all algorithms × profiles, bit-identical.

    A snapshot *is* the serialized session, so every restore leg in this
    module — this class and :class:`TestSessionOracle` alike — crosses
    the pickle boundary.
    """

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize(
        "algorithm",
        [name for name in ALL_ALGORITHMS if name in ("OLIVE", "QUICKG")],
    )
    def test_core_algorithms_pickle_round_trip(self, algorithm, profile):
        _check_pickle_round_trip(algorithm, profile)

    @pytest.mark.slow
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize(
        "algorithm",
        [name for name in ALL_ALGORITHMS if name not in ("OLIVE", "QUICKG")],
    )
    def test_remaining_algorithms_pickle_round_trip(self, algorithm, profile):
        _check_pickle_round_trip(algorithm, profile)


def _classes_in(payload: bytes) -> tuple[set[str], set[str]]:
    """Names of every class a checkpoint's pickles refer to.

    ``(outer, sealed)``: the classes the header + body name themselves,
    and the classes named inside ``bytes`` values that are pickles in
    their own right — the sealed decision segments and allocations,
    which the outer unpickler only ever sees as bytes.
    """
    outer: set[str] = set()
    sealed: set[str] = set()

    def load(stream: io.BytesIO, seen: set[str]):
        class Recorder(pickle.Unpickler):
            def find_class(self, module: str, name: str):
                seen.add(name)
                return super().find_class(module, name)

        start = stream.tell()
        loaded = Recorder(stream).load()
        for opcode, value, _ in pickletools.genops(
            stream.getvalue()[start:stream.tell()]
        ):
            if (
                opcode.name in ("SHORT_BINBYTES", "BINBYTES", "BINBYTES8")
                and value[:1] == pickle.PROTO
                and value[-1:] == pickle.STOP
            ):
                load(io.BytesIO(value), sealed)
        return loaded

    stream = io.BytesIO(payload)
    load(stream, outer)  # header
    assert isinstance(load(stream, outer), SimulationSession)
    assert stream.tell() == len(payload)
    return outer, sealed


def _reachable(root) -> list:
    """Every object ``root`` holds, however indirectly. The walk stops
    at classes, modules and functions: code, not state."""
    seen: dict[int, object] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(
            obj, (type, ModuleType, FunctionType, BuiltinFunctionType)
        ):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _audit_live_state(root) -> set[str]:
    """Assert that all the state under ``root`` is its own, so a pickle
    of it is complete; returns the ``repro`` classes the walk reached.

    Two ways state escapes the instance that seems to own it: a mutable
    class attribute (shared by every instance, and not pickled — a
    restored object sees whatever the live class holds by then), and a
    module-level container held by reference (pickled by value, so the
    restored copy and the module's drift apart).
    """
    objects = _reachable(root)
    module_level = {
        id(value): f"{module}.{name}"
        for module, names in repro_module_bindings().items()
        for name, value in names.items()
        if isinstance(value, MUTABLE_CONTAINERS)
    }
    aliased = {
        module_level[id(obj)] for obj in objects if id(obj) in module_level
    }
    assert not aliased, f"module-level state held by reference: {aliased}"

    reached = {
        cls for cls in map(type, objects)
        if cls.__module__.split(".")[0] == "repro"
    }
    shared = {
        f"{base.__name__}.{name}"
        for cls in reached
        for base in cls.__mro__
        # An Enum's member tables are fixed when the class is created.
        if base.__module__.split(".")[0] == "repro"
        and not issubclass(base, Enum)
        for name, value in vars(base).items()
        if not name.startswith("__")
        and isinstance(value, MUTABLE_CONTAINERS)
    }
    assert not shared, f"class-level mutable defaults: {shared}"
    return {cls.__name__ for cls in reached}


class TestSnapshotPayload:
    """What a checkpoint contains, measured on the bytes themselves and
    on the live objects they are made from."""

    #: Derived state that must stay out: a route's throwaway
    #: shortest-path tree lives for one embed only.
    DERIVED = {"_RouteTree"}

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_payload_holds_no_derived_state(self, algorithm):
        scenario = _session_scenario(algorithm)
        session = SimulationSession(
            make_algorithm(algorithm, scenario), scenario.online_requests(),
            scenario.config.online_slots,
        )
        session.run_until(3)
        assert {"SimulationSession", "Request"} <= _audit_live_state(session)

        snapshot = session.snapshot()
        payload = snapshot.to_bytes()
        outer, sealed = _classes_in(payload)
        assert "SimulationSession" in outer
        assert not (outer | sealed) & self.DERIVED
        # The decision log rides as sealed segments and nowhere else.
        assert "Decision" in sealed and "Decision" not in outer

        # Nothing derived leaks back in through a restore either.
        again = SimulationSession.restore(snapshot).snapshot().to_bytes()
        assert abs(len(again) - len(payload)) <= 0.01 * len(payload)

    def test_service_under_workload_events_holds_only_its_own_state(self):
        """An OLIVE service over a seed trace, with a flash crowd merged
        in and a token bucket in front: the widest object graph a
        checkpoint carries. The classes audited are whatever the walk
        finds, and a restored checkpoint holds no request that its log,
        its calendars, its ledger or the flash crowd itself does not
        account for — the schedule's memo of the transformed trace (the
        seed trace twice over) stays behind."""
        scenario = _session_scenario("OLIVE")
        slots = scenario.config.online_slots
        schedule = resolve_events("flash-crowd", scenario, 21)
        assert schedule.num_workload_events
        service = EmbedderService(
            SimulationSession(
                make_algorithm("OLIVE", scenario),
                scenario.online_requests(), slots, events=schedule,
            ),
            admission="token-bucket",
            admission_params={"rate": 50, "burst": 80},
            scenario=scenario,
        )
        service.advance_to(slots - 2)

        reached = _audit_live_state(service)
        assert len(reached) >= 30
        assert reached >= {
            "GreedyContext", "AppProfile", "LoadsRecipe", "TokenBucket",
            "EventSchedule", "EventCursor", "Plan", "SubstrateIndex",
            "Decision", "_ActiveAllocation",
        }

        snapshot = service.snapshot()
        restored = EmbedderService.restore(snapshot)
        session = restored.session
        held = sum(isinstance(obj, Request) for obj in _reachable(restored))
        assert held <= (
            len(session._decisions) + len(session._preemptions)
            + len(session._disruptions)
            + session.pending_arrivals
            + sum(map(len, session._departures_by_slot.values()))
            + len(session.algorithm.active)
            + len(session.events._injected)
        )
        again = restored.snapshot().to_bytes()
        payload = snapshot.to_bytes()
        assert abs(len(again) - len(payload)) <= 0.01 * len(payload)

    def test_fullg_allocation_bytes_are_produced_once(self):
        """Three consecutive checkpoints of a FULLG session: a row that
        stays carries the same bytes object through all of them; an id
        the link failure in between rerouted is a new row, pickled
        afresh with its new embedding."""
        scenario = _session_scenario("FULLG")
        slots = scenario.config.online_slots
        online = scenario.online_requests()

        probe = SimulationSession(
            make_algorithm("FULLG", scenario), online, slots
        )
        probe.run_until(4)
        link = next(
            link for a in probe.algorithm.active.values()
            if a.request.departure > 6 for link in a.loads.links
        )
        schedule = EventSchedule(
            [LinkFailure(slot=5, link=link)], policy="reroute"
        )

        session = SimulationSession(
            make_algorithm("FULLG", scenario), online, slots, events=schedule
        )
        algorithm = session.algorithm
        session.run_until(4)
        seen: list[dict[int, tuple]] = []
        for _ in range(3):  # boundaries 4, 5 and — after the failure — 6
            session.snapshot()
            seen.append({
                rid: (row, row.sealed)
                for rid, row in algorithm.active.items()
            })
            assert all(sealed is not None for _, sealed in seen[-1].values())
            session.step()

        first, second, third = seen
        stayed = [rid for rid in first if rid in second]
        assert stayed
        assert all(second[rid][1] is first[rid][1] for rid in stayed)
        rerouted = [
            rid for rid in second
            if rid in third and third[rid][0] is not second[rid][0]
        ]
        assert rerouted, "the failed link carried an active allocation"
        for rid in rerouted:
            assert link in second[rid][0].loads.links
            assert third[rid][1] is not second[rid][1]
            assert link not in pickle.loads(third[rid][1])[2].links
        kept = [
            rid for rid in second if rid in third and rid not in rerouted
        ]
        assert kept
        assert all(third[rid][1] is second[rid][1] for rid in kept)
