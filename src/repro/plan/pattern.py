"""Plan data structures: embedding patterns and per-class plans.

PLAN-VNE's decision variables y^q_s(r̃) are fractional and splittable. The
online algorithm needs unsplittable guidance, so each class's fractional
embedding is decomposed into weighted *patterns*: full VN mappings (node
assignment plus a substrate path per virtual link). Pattern weights sum to
the class's allocated fraction; ``weight × d(r̃)`` is the planned capacity
OLIVE may draw from each pattern (the residual plan of Eq. 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.stats.aggregate import AggregateRequest, ClassKey
from repro.substrate.network import LinkId, NodeId
from repro.utils.fold import left_sum

VLinkKey = tuple[int, int]


@dataclass(frozen=True)
class EmbeddingPattern:
    """One unsplittable VN mapping carrying a fraction of a class's demand.

    Attributes
    ----------
    node_map:
        VNF id → substrate node (includes the root θ at the ingress).
    link_paths:
        Virtual link (i, j) → substrate link sequence from node_map[i] to
        node_map[j]; the empty tuple means both endpoints are collocated.
    weight:
        Fraction of the class demand d(r̃) planned through this mapping.
    """

    node_map: dict[int, NodeId]
    link_paths: dict[VLinkKey, tuple[LinkId, ...]]
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise PlanError(f"pattern weight must be positive, got {self.weight}")

    def planned_capacity(self, class_demand: float) -> float:
        """Demand units this pattern guarantees for its class."""
        return self.weight * class_demand


@dataclass
class ClassPlan:
    """The planned embedding of one aggregate class r̃_{a,v}."""

    aggregate: AggregateRequest
    patterns: list[EmbeddingPattern]
    rejected_fraction: float

    @property
    def allocated_fraction(self) -> float:
        return left_sum(p.weight for p in self.patterns)

    @property
    def class_key(self) -> ClassKey:
        return self.aggregate.class_key

    def guaranteed_demand(self) -> float:
        """Total demand units the plan guarantees this class."""
        return self.allocated_fraction * self.aggregate.demand


@dataclass
class Plan:
    """A full embedding plan y(R̃): one :class:`ClassPlan` per class.

    An empty plan (no classes) degrades OLIVE into QUICKG — every request
    falls through to the greedy path — which is exactly how the paper
    defines the QUICKG baseline.
    """

    classes: dict[ClassKey, ClassPlan] = field(default_factory=dict)
    objective: float = 0.0

    def class_plan(self, key: ClassKey) -> ClassPlan | None:
        return self.classes.get(key)

    @property
    def is_empty(self) -> bool:
        return not self.classes

    @property
    def num_patterns(self) -> int:
        return sum(len(cp.patterns) for cp in self.classes.values())

    def total_guaranteed_demand(self) -> float:
        return left_sum(cp.guaranteed_demand() for cp in self.classes.values())

    def mean_rejected_fraction(self) -> float:
        """Demand-weighted mean planned rejection across classes."""
        total = left_sum(cp.aggregate.demand for cp in self.classes.values())
        if total == 0:
            return 0.0
        return (
            left_sum(
                cp.rejected_fraction * cp.aggregate.demand
                for cp in self.classes.values()
            )
            / total
        )
