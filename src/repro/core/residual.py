"""Residual capacity tracking (Eqs. 16–19).

:class:`ResidualState` tracks Res(S, t, x): what remains of every substrate
element's capacity given the currently active allocations. Checks use a
small epsilon so float round-trips (allocate/release cycles) never produce
spurious infeasibility.

:class:`PlanResidual` tracks Res(y, t, x): how much of each plan pattern's
guaranteed capacity is still unclaimed by active *planned* allocations.
Only planned allocations draw from it (Algorithm 2, ALLOCATE line 22);
borrowed allocations consume substrate capacity without touching the plan,
which is precisely why they are preemptible later.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.embedding import ElementLoads
from repro.errors import SimulationError
from repro.plan.pattern import Plan
from repro.stats.aggregate import ClassKey
from repro.substrate.network import (
    NodeId,
    SubstrateNetwork,
    substrate_index,
)

#: Tolerance for capacity comparisons, scaled to capacity magnitudes.
EPSILON = 1e-6


class _ArrayMapping(MutableMapping):
    """Dict-compatible view over one position-indexed residual sequence.

    Reads and writes go straight to the backing storage, so code that
    predates the indexed backend (``residual.links[l] >= load``,
    ``residual.nodes[v] = 15.0`` in tests) keeps working unchanged.
    A node write bumps the owner's ``node_rev`` so its numpy snapshot
    refreshes (see :meth:`ResidualState.node_array`).
    """

    __slots__ = ("_index", "_array", "_keys", "_owner", "_kind")

    def __init__(self, index, array, keys, owner, kind):
        self._index = index
        self._array = array
        self._keys = keys
        self._owner = owner
        self._kind = kind

    def __getitem__(self, key) -> float:
        return self._array[self._index[key]]

    def __setitem__(self, key, value) -> None:
        position = self._index[key]
        self._array[position] = value
        if self._kind == "node":
            self._owner.node_rev += 1

    def __delitem__(self, key) -> None:
        raise SimulationError("residual elements cannot be removed")

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._index

    def __eq__(self, other) -> bool:
        if isinstance(other, (dict, MutableMapping)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class ResidualState:
    """Res(S, t, x): residual node and link capacities of the substrate.

    Residuals live in two plain-Python lists indexed by
    :class:`~repro.substrate.network.SubstrateIndex` positions (scalar
    bookkeeping — allocate/release/fits on a handful of elements — is
    faster on native floats than on numpy scalars). Greedy routing reads
    :attr:`link_residual` directly; the per-node-η and two-group host
    scans read node residuals through :meth:`node_array`, a lazily
    refreshed numpy snapshot keyed on :attr:`node_rev`. The
    ``nodes``/``links`` attributes remain dict-compatible views for
    pre-array code and tests.
    """

    def __init__(self, substrate: SubstrateNetwork) -> None:
        self.substrate = substrate
        self.index = substrate_index(substrate)
        self.node_residual: list[float] = self.index.node_capacity.tolist()
        self.link_residual: list[float] = self.index.link_capacity.tolist()
        #: Current *effective* capacities. They start at the substrate's
        #: nominal values and diverge only under dynamic events (failures,
        #: drains, degradations — :mod:`repro.scenarios.events`), which
        #: mutate them through :meth:`set_node_capacity` /
        #: :meth:`set_link_capacity`. The capacity invariant is always
        #: ``residual == effective capacity − Σ active loads`` — so a
        #: capacity cut below current usage drives the residual negative,
        #: which is how stranded allocations are detected.
        self.node_capacity: list[float] = self.index.node_capacity.tolist()
        self.link_capacity: list[float] = self.index.link_capacity.tolist()
        #: Revision counter of node-residual changes (array-cache key).
        self.node_rev = 0
        self._node_array: "np.ndarray | None" = None
        self._node_array_rev = -1
        self.nodes = _ArrayMapping(
            self.index.node_index, self.node_residual,
            self.index.node_ids, self, "node",
        )
        self.links = _ArrayMapping(
            self.index.link_index, self.link_residual,
            self.index.link_ids, self, "link",
        )

    def node_array(self) -> "np.ndarray":
        """Current node residuals as a numpy snapshot (do not mutate)."""
        if self._node_array_rev != self.node_rev:
            self._node_array = np.array(self.node_residual)
            self._node_array_rev = self.node_rev
        return self._node_array

    def fits(self, loads: ElementLoads) -> bool:
        """Eq. 18: can these loads be added without violating capacity?"""
        node_index = self.index.node_index
        node_residual = self.node_residual
        for node, load in loads.nodes.items():
            if load > node_residual[node_index[node]] + EPSILON:
                return False
        link_index = self.index.link_index
        link_residual = self.link_residual
        for link, load in loads.links.items():
            if load > link_residual[link_index[link]] + EPSILON:
                return False
        return True

    def shortfall(self, loads: ElementLoads) -> ElementLoads:
        """How much capacity is missing per element for these loads."""
        missing = ElementLoads()
        node_index = self.index.node_index
        for node, load in loads.nodes.items():
            gap = load - self.node_residual[node_index[node]]
            if gap > EPSILON:
                missing.nodes[node] = gap
        link_index = self.index.link_index
        for link, load in loads.links.items():
            gap = load - self.link_residual[link_index[link]]
            if gap > EPSILON:
                missing.links[link] = gap
        return missing

    def allocate(self, loads: ElementLoads) -> None:
        """Consume capacity; negative residuals (beyond ε) are a bug."""
        node_index = self.index.node_index
        node_residual = self.node_residual
        for node, load in loads.nodes.items():
            position = node_index[node]
            value = node_residual[position] - load
            node_residual[position] = value
            # The threshold is negative, so value >= 0 can never trip it;
            # branching on the sign first keeps the common path cheap.
            if value < 0.0 and value < -EPSILON * (load if load > 1.0 else 1.0):
                raise SimulationError(f"node {node!r} residual went negative")
        if loads.nodes:
            self.node_rev += 1
        link_index = self.index.link_index
        link_residual = self.link_residual
        for link, load in loads.links.items():
            position = link_index[link]
            value = link_residual[position] - load
            link_residual[position] = value
            if value < 0.0 and value < -EPSILON * (load if load > 1.0 else 1.0):
                raise SimulationError(f"link {link!r} residual went negative")

    def release(self, loads: ElementLoads) -> None:
        """Return capacity on request departure or preemption."""
        node_index = self.index.node_index
        node_residual = self.node_residual
        for node, load in loads.nodes.items():
            node_residual[node_index[node]] += load
        if loads.nodes:
            self.node_rev += 1
        link_index = self.index.link_index
        link_residual = self.link_residual
        for link, load in loads.links.items():
            link_residual[link_index[link]] += load

    # -- dynamic capacity mutation (events subsystem) ------------------------

    def set_node_capacity(self, node: NodeId, capacity: float) -> bool:
        """Set a node's effective capacity, shifting its residual by the
        delta (:mod:`repro.scenarios.events`). The residual may go
        negative: active allocations exceeding the new capacity are
        *stranded* and must be resolved by a disruption policy. Returns
        whether the capacity actually changed.
        """
        position = self.index.node_index[node]
        delta = capacity - self.node_capacity[position]
        if delta == 0.0:
            return False
        self.node_capacity[position] = capacity
        self.node_residual[position] += delta
        self.node_rev += 1
        return True

    def set_link_capacity(self, link, capacity: float) -> bool:
        """Set a link's effective capacity (see :meth:`set_node_capacity`)."""
        position = self.index.link_index[link]
        delta = capacity - self.link_capacity[position]
        if delta == 0.0:
            return False
        self.link_capacity[position] = capacity
        self.link_residual[position] += delta
        return True

    def nominal_node_capacity(self, node: NodeId) -> float:
        """The substrate's static capacity of ``node`` (pre-events)."""
        return float(self.index.node_capacity[self.index.node_index[node]])

    def nominal_link_capacity(self, link) -> float:
        """The substrate's static capacity of ``link`` (pre-events)."""
        return float(self.index.link_capacity[self.index.link_index[link]])

    def overloaded_elements(self) -> tuple[list[NodeId], list]:
        """Elements whose residual is negative (beyond ε), in index order.

        A negative residual can only arise from an effective-capacity cut
        below the currently allocated load; the returned elements are the
        ones whose users a disruption policy must preempt or reroute.
        """
        nodes = [
            self.index.node_ids[i]
            for i, value in enumerate(self.node_residual)
            if value < -EPSILON
        ]
        links = [
            self.index.link_ids[i]
            for i, value in enumerate(self.link_residual)
            if value < -EPSILON
        ]
        return nodes, links

    def node_utilization(self, node: NodeId) -> float:
        position = self.index.node_index[node]
        capacity = self.node_capacity[position]
        if capacity <= 0:
            return 0.0
        return 1.0 - self.node_residual[position] / capacity


@dataclass
class PlanResidual:
    """Res(y, t, x): unclaimed guaranteed capacity per plan pattern.

    Keys are ``(class_key, pattern_index)``; values are demand units. Full
    fits (Eq. 19) require a single pattern able to absorb the whole request
    — embeddings are unsplittable, so the request must follow one concrete
    mapping.
    """

    plan: Plan
    residual: dict[tuple[ClassKey, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, class_plan in self.plan.classes.items():
            demand = class_plan.aggregate.demand
            for index, pattern in enumerate(class_plan.patterns):
                self.residual[(key, index)] = pattern.planned_capacity(demand)

    def find_full_fit(self, class_key: ClassKey, demand: float) -> int | None:
        """Index of a pattern whose residual covers ``demand``, if any.

        Patterns are scanned best-residual-first so load spreads across the
        planned mappings instead of exhausting them in plan order.
        """
        class_plan = self.plan.class_plan(class_key)
        if class_plan is None:
            return None
        best_index, best_value = None, demand - EPSILON
        for index in range(len(class_plan.patterns)):
            value = self.residual[(class_key, index)]
            if value > best_value:
                best_index, best_value = index, value
        return best_index

    def find_partial_fit(self, class_key: ClassKey) -> int | None:
        """Index of the pattern with the largest positive residual, if any.

        This is Algorithm 2's partial fit (line 27): some fraction α > 0 of
        the request still fits the plan, so the planned mapping remains the
        guide even though the full demand overflows it.
        """
        class_plan = self.plan.class_plan(class_key)
        if class_plan is None:
            return None
        best_index, best_value = None, EPSILON
        for index in range(len(class_plan.patterns)):
            value = self.residual[(class_key, index)]
            if value > best_value:
                best_index, best_value = index, value
        return best_index

    def draw(self, class_key: ClassKey, index: int, demand: float) -> None:
        """Claim pattern capacity for a planned allocation."""
        key = (class_key, index)
        self.residual[key] -= demand
        if self.residual[key] < -EPSILON * max(1.0, demand):
            raise SimulationError(
                f"plan residual for {key} went negative"
            )

    def release(self, class_key: ClassKey, index: int, demand: float) -> None:
        """Return pattern capacity when a planned allocation departs."""
        self.residual[(class_key, index)] += demand

    def guaranteed_remaining(self, class_key: ClassKey) -> float:
        """Total unclaimed planned capacity of one class."""
        class_plan = self.plan.class_plan(class_key)
        if class_plan is None:
            return 0.0
        return sum(
            self.residual[(class_key, index)]
            for index in range(len(class_plan.patterns))
        )
