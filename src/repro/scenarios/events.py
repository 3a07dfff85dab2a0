"""Dynamic substrate/workload events and the schedule the engine consumes.

An :class:`EventSchedule` is a seeded, slot-ordered sequence of events of
two shapes:

* **Capacity events** (link failure/recovery, node drain/maintenance,
  capacity degradation) mutate the *effective* capacity tracked by
  :class:`~repro.core.residual.ResidualState` at the start of their slot
  (after departures, before arrivals). A cut below the currently
  allocated load drives residuals negative; the schedule's *disruption
  policy* then resolves the stranded allocations — ``"preempt"`` drops
  them, ``"reroute"`` re-embeds them greedily against the degraded
  substrate and drops only what no longer fits. Both engines (the
  incremental fast path and :mod:`repro.core.greedy_reference`) share
  this exact code path, so the differential oracle applies unchanged.
* **Workload events** (flash crowds, ingress migrations) perturb the
  online request stream deterministically: a session schedules the
  flash crowds' requests with its seed arrivals and re-homes every
  arrival a migration covers, so every compared algorithm sees the
  identical perturbed trace — the paper's same-trace methodology.

All events of one slot are applied atomically: stranding is resolved once
per slot, after the last event. A failure followed by a recovery in the
same slot is therefore a no-op — one of the metamorphic properties the
test suite pins.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.residual import EPSILON
from repro.errors import SimulationError
from repro.substrate.network import (
    LinkAttrs,
    LinkId,
    NodeId,
    SubstrateNetwork,
    substrate_index,
)
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.ledger import LedgerAlgorithm
    from repro.core.residual import ResidualState

#: Valid disruption policies for requests stranded by capacity events.
DISRUPTION_POLICIES = ("preempt", "reroute")

#: ``("node"|"link", element, new_capacity)`` — one effective-capacity write.
CapacityChange = tuple[str, object, float]


@dataclass(frozen=True)
class Event:
    """Base event: something happening at the start of ``slot``."""

    slot: int

    def capacity_changes(
        self, substrate: SubstrateNetwork
    ) -> list[CapacityChange]:
        """``("node"|"link", element, new_capacity)`` tuples, if any."""
        return []


# -- capacity events ----------------------------------------------------------


@dataclass(frozen=True)
class LinkFailure(Event):
    """A link goes down: effective capacity drops to zero."""

    link: LinkId = ("", "")

    def capacity_changes(
        self, substrate: SubstrateNetwork
    ) -> list[CapacityChange]:
        return [("link", self.link, 0.0)]


@dataclass(frozen=True)
class LinkRecovery(Event):
    """A failed/degraded link returns to its nominal capacity."""

    link: LinkId = ("", "")

    def capacity_changes(
        self, substrate: SubstrateNetwork
    ) -> list[CapacityChange]:
        return [("link", self.link, substrate.link_capacity(self.link))]


@dataclass(frozen=True)
class NodeDrain(Event):
    """A datacenter is drained for maintenance.

    ``fraction`` is the remaining share of nominal capacity: 0.0 is a
    full outage, 0.5 a half-drain (typical pre-maintenance step).
    """

    node: NodeId = ""
    fraction: float = 0.0

    def capacity_changes(
        self, substrate: SubstrateNetwork
    ) -> list[CapacityChange]:
        return [
            ("node", self.node,
             substrate.node_capacity(self.node) * self.fraction)
        ]


@dataclass(frozen=True)
class NodeRestore(Event):
    """A drained datacenter returns to its nominal capacity."""

    node: NodeId = ""

    def capacity_changes(
        self, substrate: SubstrateNetwork
    ) -> list[CapacityChange]:
        return [("node", self.node, substrate.node_capacity(self.node))]


@dataclass(frozen=True)
class CapacityDegradation(Event):
    """Partial capacity loss over a set of elements (e.g. a whole tier).

    Sets every listed element to ``fraction`` of its nominal capacity;
    restore by issuing a second event with ``fraction=1.0``.
    """

    fraction: float = 1.0
    links: tuple[LinkId, ...] = ()
    nodes: tuple[NodeId, ...] = ()

    def capacity_changes(
        self, substrate: SubstrateNetwork
    ) -> list[CapacityChange]:
        changes: list[CapacityChange] = []
        for node in self.nodes:
            changes.append(
                ("node", node, substrate.node_capacity(node) * self.fraction)
            )
        for link in self.links:
            changes.append(
                ("link", link, substrate.link_capacity(link) * self.fraction)
            )
        return changes


# -- workload events ----------------------------------------------------------


@dataclass(frozen=True)
class FlashCrowd(Event):
    """A burst of extra requests injected into the online stream.

    The requests are synthesized by the event profile (seeded), carry
    ids disjoint from the trace's, and arrive at ``slot`` onwards like
    any other arrival — every compared algorithm sees the same burst.
    """

    requests: tuple[Request, ...] = ()


@dataclass(frozen=True)
class IngressMigration(Event):
    """Arrivals at ``source`` are re-homed to ``target`` for a window.

    Models a user-population shift (disaster evacuation, PoP drain):
    every online request with ``slot <= arrival < until`` whose ingress
    is ``source`` is rewritten to arrive at ``target`` instead.
    """

    source: NodeId = ""
    target: NodeId = ""
    until: int = 0


# -- schedule -----------------------------------------------------------------


class EventSchedule:
    """A slot-ordered event sequence plus its disruption policy.

    Events are stably sorted by slot (insertion order breaks ties), so a
    profile controls intra-slot application order. The schedule is
    immutable once built; :meth:`with_policy` returns a copy with a
    different stranded-request policy.
    """

    def __init__(
        self,
        events: "list[Event] | tuple[Event, ...]" = (),
        policy: str = "preempt",
        name: str = "",
    ) -> None:
        if policy not in DISRUPTION_POLICIES:
            raise SimulationError(
                f"unknown disruption policy {policy!r}; "
                f"known: {list(DISRUPTION_POLICIES)}"
            )
        for event in events:
            if event.slot < 0:
                raise SimulationError(
                    f"event {event!r} scheduled before slot 0"
                )
        self.events: tuple[Event, ...] = tuple(
            sorted(events, key=lambda e: e.slot)
        )
        self.policy = policy
        self.name = name
        capacity_by_slot: dict[int, list[Event]] = {}
        self._migrations: list[IngressMigration] = []
        self._injected: list[Request] = []
        for event in self.events:
            if isinstance(event, IngressMigration):
                self._migrations.append(event)
            elif isinstance(event, FlashCrowd):
                self._injected.extend(event.requests)
            else:
                capacity_by_slot.setdefault(event.slot, []).append(event)
        self._capacity_by_slot = {
            slot: tuple(batch) for slot, batch in capacity_by_slot.items()
        }
        #: Workload-shaped events (flash crowds, migrations): applied as
        #: a session schedules its arrivals, not slot-by-slot.
        self.num_workload_events = len(self._migrations) + sum(
            1 for event in self.events if isinstance(event, FlashCrowd)
        )

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def has_capacity_events(self) -> bool:
        return bool(self._capacity_by_slot)

    @property
    def max_event_slot(self) -> int:
        """The last slot any event (or injected arrival) needs (-1 if none).

        The engine fails fast when this reaches the horizon — a capacity
        event or migration start at ``slot >= num_slots`` would otherwise
        silently never fire (the slot loop ends at ``num_slots - 1``),
        and an injected arrival there could never be processed.
        """
        last = max((event.slot for event in self.events), default=-1)
        if self._injected:
            last = max(last, max(r.arrival for r in self._injected))
        return last

    @property
    def injected(self) -> tuple[Request, ...]:
        """The flash crowds' requests, in schedule order."""
        return tuple(self._injected)

    def capacity_events_at(self, slot: int) -> tuple[Event, ...]:
        """The slot's capacity events, in schedule order."""
        return self._capacity_by_slot.get(slot, ())

    def with_policy(self, policy: str) -> "EventSchedule":
        """A copy of this schedule under a different disruption policy."""
        return EventSchedule(self.events, policy=policy, name=self.name)

    def shifted(self, offset: int) -> "EventSchedule":
        """A copy with every event moved ``offset`` slots later.

        Flash-crowd arrivals and migration windows move with their
        events, so a shifted schedule perturbs the run identically —
        just later. Negative offsets are allowed as long as no event
        lands before slot 0 (the constructor rejects that).
        """
        if offset == 0:
            return self
        events: list[Event] = []
        for event in self.events:
            if isinstance(event, FlashCrowd):
                requests = tuple(
                    dataclasses.replace(r, arrival=r.arrival + offset)
                    for r in event.requests
                )
                events.append(
                    dataclasses.replace(
                        event, slot=event.slot + offset, requests=requests
                    )
                )
            elif isinstance(event, IngressMigration):
                events.append(
                    dataclasses.replace(
                        event,
                        slot=event.slot + offset,
                        until=event.until + offset,
                    )
                )
            else:
                events.append(
                    dataclasses.replace(event, slot=event.slot + offset)
                )
        name = f"{self.name}@{offset:+d}" if self.name else ""
        return EventSchedule(events, policy=self.policy, name=name)

    def compose(
        self,
        *others: "EventSchedule",
        policy: str | None = None,
        name: str = "",
    ) -> "EventSchedule":
        """Overlay schedules into one — e.g. a flash crowd *during* a drain.

        Events are concatenated in operand order and re-sorted by slot;
        because the constructor's sort is stable, **same-slot ordering is
        operand order** (all of ``self``'s slot-``t`` events fire before
        any of ``others[0]``'s, and so on) — composition is therefore
        associative but deliberately not commutative.

        The operands must agree on the disruption policy, or an explicit
        ``policy=`` must pick one; composing schedules that silently
        disagree on how to treat stranded requests is almost certainly a
        bug, so it fails fast.

        Combine with :meth:`shifted` for relative placement::

            drain.compose(flash_crowd.shifted(drain_start + 3))
        """
        schedules = (self, *others)
        if policy is None:
            policies = {schedule.policy for schedule in schedules}
            if len(policies) > 1:
                raise SimulationError(
                    f"composed schedules disagree on disruption policy "
                    f"{sorted(policies)}; pass policy=... to choose one"
                )
            policy = self.policy
        events = [
            event for schedule in schedules for event in schedule.events
        ]
        if not name:
            parts = [s.name for s in schedules if s.name]
            name = "+".join(parts)
        return EventSchedule(events, policy=policy, name=name)

    def apply_migrations(self, request: Request) -> Request:
        """One request with any matching ingress migrations applied.

        The streaming session applies it to every arrival it schedules
        or is handed mid-slot — seed, flash-crowd or ``submit()``ted
        alike — so each is re-homed the same way. Returns the input
        unchanged when no migration matches.
        """
        for migration in self._migrations:
            if (
                migration.slot <= request.arrival < migration.until
                and request.ingress == migration.source
            ):
                request = dataclasses.replace(
                    request, ingress=migration.target
                )
        return request

    def validate(
        self, substrate: SubstrateNetwork, num_apps: int | None = None
    ) -> None:
        """Fail fast on events referencing unknown substrate elements.

        ``num_apps`` additionally range-checks the ``app_index`` of
        flash-crowd requests (pass ``len(scenario.apps)`` when known).
        """
        for event in self.events:
            try:
                changes = event.capacity_changes(substrate)
            except KeyError as exc:
                # Recovery/drain events dereference the substrate for the
                # nominal capacity; surface the same fail-fast error the
                # membership check below produces.
                raise SimulationError(
                    f"event {event!r} references unknown element "
                    f"{exc.args[0]!r} of substrate {substrate.name!r}"
                ) from None
            for kind, element, _ in changes:
                known = substrate.links if kind == "link" else substrate.nodes
                if element not in known:
                    raise SimulationError(
                        f"event {event!r} references unknown {kind} "
                        f"{element!r} of substrate {substrate.name!r}"
                    )
            if isinstance(event, IngressMigration):
                for node in (event.source, event.target):
                    if node not in substrate.nodes:
                        raise SimulationError(
                            f"event {event!r} references unknown node "
                            f"{node!r} of substrate {substrate.name!r}"
                        )
            elif isinstance(event, FlashCrowd):
                for request in event.requests:
                    if request.ingress not in substrate.nodes:
                        raise SimulationError(
                            f"flash-crowd request {request.id} (slot "
                            f"{event.slot}) references unknown node "
                            f"{request.ingress!r} of substrate "
                            f"{substrate.name!r}"
                        )
                    if num_apps is not None and not (
                        0 <= request.app_index < num_apps
                    ):
                        raise SimulationError(
                            f"flash-crowd request {request.id} (slot "
                            f"{event.slot}) references app_index "
                            f"{request.app_index}, outside the scenario's "
                            f"{num_apps} applications"
                        )

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"EventSchedule({len(self.events)} events{label}, "
            f"policy={self.policy!r})"
        )


# -- application --------------------------------------------------------------


def apply_capacity_events(
    residual: "ResidualState", events: tuple[Event, ...]
) -> bool:
    """Apply a slot's capacity events to one residual state.

    Returns whether any effective capacity actually changed (a failure of
    an already-failed link is a no-op and triggers no disruption scan).
    """
    substrate = residual.substrate
    changed = False
    for event in events:
        for kind, element, capacity in event.capacity_changes(substrate):
            if kind == "node":
                changed = residual.set_node_capacity(element, capacity) or changed
            else:
                changed = residual.set_link_capacity(element, capacity) or changed
    return changed


def resolve_disruptions(
    algorithm: LedgerAlgorithm, policy: str
) -> list[Request]:
    """Resolve allocations stranded by a capacity cut, deterministically.

    While any element's residual is negative, the earliest still-active
    allocation touching an overloaded element is released (insertion
    order of the algorithm's active table — identical between the fast
    and reference engines, so whole-sim bit-equivalence is preserved).
    Under the ``"reroute"`` policy each released request then gets one
    greedy re-embedding attempt against the degraded substrate, in
    release order; only requests that no longer fit anywhere are dropped.

    Duck-typed: any algorithm exposing ``residual``, ``active_loads()``
    (``(request, loads)`` pairs in allocation order), ``release(request)``
    and, for reroute, ``reroute(request) -> bool`` — the base class has all
    four — may pass itself here.

    One forward pass suffices: releases only *return* capacity, so the
    overloaded set monotonically shrinks and an allocation skipped once
    can never become a toucher later — the pass selects exactly the
    victims (in the same order) that repeated earliest-toucher scans
    would, at O(active + elements) instead of quadratic.
    """
    residual = algorithm.residual
    released: list[Request] = []
    over_nodes, over_links = residual.overloaded_elements()
    if not over_nodes and not over_links:
        return []
    over_node_set = set(over_nodes)
    over_link_set = set(over_links)
    node_index = residual.index.node_index
    link_index = residual.index.link_index
    # Snapshot: release() mutates the active table mid-iteration.
    for request, loads in list(algorithm.active_loads()):
        if not (over_node_set or over_link_set):
            break
        if any(node in over_node_set for node in loads.nodes) or any(
            link in over_link_set for link in loads.links
        ):
            algorithm.release(request)
            released.append(request)
            # Only elements this release touched can leave the set.
            for node in loads.nodes:
                if (
                    node in over_node_set
                    and residual.node_residual[node_index[node]] >= -EPSILON
                ):
                    over_node_set.discard(node)
            for link in loads.links:
                if (
                    link in over_link_set
                    and residual.link_residual[link_index[link]] >= -EPSILON
                ):
                    over_link_set.discard(link)
    if over_node_set or over_link_set:  # pragma: no cover - cut below zero
        raise SimulationError(
            "capacity overload not attributable to any active "
            f"allocation (nodes {sorted(over_node_set)}, "
            f"links {sorted(over_link_set)})"
        )
    if policy == "reroute":
        dropped = []
        for request in released:
            if not algorithm.reroute(request):
                dropped.append(request)
        return dropped
    return released


def substrate_with_capacities(
    substrate: SubstrateNetwork,
    node_capacity: dict[NodeId, float],
    link_capacity: dict[LinkId, float],
) -> SubstrateNetwork:
    """A substrate copy with some effective capacities overridden.

    Used by algorithms that re-derive state from the substrate each slot
    (SLOTOFF's per-slot LP) rather than tracking a residual.
    """
    if not node_capacity and not link_capacity:
        return substrate
    nodes = {
        v: (
            dataclasses.replace(attrs, capacity=node_capacity[v])
            if v in node_capacity
            else attrs
        )
        for v, attrs in substrate.nodes.items()
    }
    links: dict[LinkId, LinkAttrs] = {
        l: (
            dataclasses.replace(attrs, capacity=link_capacity[l])
            if l in link_capacity
            else attrs
        )
        for l, attrs in substrate.links.items()
    }
    return SubstrateNetwork(name=substrate.name, nodes=nodes, links=links)


def capacity_invariant_gap(algorithm: LedgerAlgorithm) -> float:
    """max |residual + Σ active loads − effective capacity| over elements.

    The capacity invariant every residual-tracking algorithm must keep;
    exposed for the metamorphic property tests.
    """
    residual = algorithm.residual
    index = substrate_index(residual.substrate)
    node_used = [0.0] * index.num_nodes
    link_used = [0.0] * index.num_links
    for _, loads in algorithm.active_loads():
        for node, load in loads.nodes.items():
            node_used[index.node_index[node]] += load
        for link, load in loads.links.items():
            link_used[index.link_index[link]] += load
    gap = 0.0
    for left, used, capacity in (
        (residual.node_residual, node_used, residual.node_capacity),
        (residual.link_residual, link_used, residual.link_capacity),
    ):
        for r, u, c in zip(left, used, capacity):
            gap = max(gap, abs(r + u - c))
    return gap
