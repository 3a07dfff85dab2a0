"""The online embedding request (Table I)."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class Request:
    """One VN deployment request.

    Ordering is by ``(arrival, id)`` so a sorted request list is a valid
    ON-VNE processing order (distinct requests get distinct positions even
    within one time slot, per Fig. 2). The comparisons are hand-written
    on those two fields: ids are unique trace-wide, so this is the same
    total order the full field tuple would give, without building a
    six-field tuple (including a string) per comparison. The session's
    calendars sort by the same two fields as a key.

    Attributes
    ----------
    arrival:
        Arrival time slot t(r).
    id:
        Unique, trace-wide identifier.
    app_index:
        Index of a(r) in the experiment's application list.
    ingress:
        Substrate node v(r) where the user θ resides.
    demand:
        Demand size 0 < d(r) < ∞.
    duration:
        Active duration T(r) ≥ 1 slots; the request occupies slots
        ``t(r) ≤ t < t(r) + T(r)``. Known to algorithms only at departure,
        but carried on the object for simulator bookkeeping.
    """

    arrival: int
    id: int
    app_index: int
    ingress: str
    demand: float
    duration: int

    def __lt__(self, other: "Request") -> bool:
        if self.arrival != other.arrival:
            return self.arrival < other.arrival
        return self.id < other.id

    def __le__(self, other: "Request") -> bool:
        if self.arrival != other.arrival:
            return self.arrival < other.arrival
        return self.id <= other.id

    def __gt__(self, other: "Request") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "Request") -> bool:
        return other.__le__(self)

    def __post_init__(self) -> None:
        if not 0 < self.demand < math.inf:
            raise WorkloadError(
                f"request {self.id}: demand must be positive and finite"
            )
        if self.duration < 1:
            raise WorkloadError(f"request {self.id}: duration must be >= 1")
        if self.arrival < 0:
            raise WorkloadError(f"request {self.id}: negative arrival time")

    @classmethod
    def trusted(
        cls,
        arrival: int,
        id: int,
        app_index: int,
        ingress: str,
        demand: float,
        duration: int,
    ) -> "Request":
        """Construct without re-validating the invariants.

        A trace hands out hundreds of thousands of requests whose fields
        are guaranteed valid by construction (demands clamped to a
        positive, finite floor, durations ceiled to ≥ 1); skipping
        ``__init__``/``__post_init__`` there saves a large slice of
        set-up time. Callers must guarantee the class invariants
        themselves.
        """
        self = object.__new__(cls)
        fields = self.__dict__
        fields["arrival"] = arrival
        fields["id"] = id
        fields["app_index"] = app_index
        fields["ingress"] = ingress
        fields["demand"] = demand
        fields["duration"] = duration
        return self

    @property
    def departure(self) -> int:
        """First slot in which the request is no longer active."""
        return self.arrival + self.duration

    def active_at(self, t: int) -> bool:
        return self.arrival <= t < self.departure

    def class_key(self) -> tuple[int, str]:
        """The (application, ingress) aggregation class of this request."""
        return (self.app_index, self.ingress)


@dataclass(frozen=True, eq=False)
class RequestColumns:
    """Requests as parallel numpy columns, one row per request.

    ``ingress`` holds indices into ``nodes``. Traces are drawn and
    aggregated in this form; :class:`Request` objects are built from it
    only where a caller asks for them.
    """

    nodes: Sequence[str]
    arrival: np.ndarray
    app_index: np.ndarray
    ingress: np.ndarray
    demand: np.ndarray
    duration: np.ndarray

    @classmethod
    def of(cls, requests: Sequence[Request]) -> "RequestColumns":
        """The columns of ``requests``, in their order."""
        codes: dict[str, int] = {}
        ingress = [codes.setdefault(r.ingress, len(codes)) for r in requests]
        return cls(
            list(codes),
            np.array([r.arrival for r in requests], dtype=np.int64),
            np.array([r.app_index for r in requests], dtype=np.int64),
            np.array(ingress, dtype=np.int64),
            np.array([r.demand for r in requests], dtype=float),
            np.array([r.duration for r in requests], dtype=np.int64),
        )

    def rows(self, start: int, stop: int) -> "RequestColumns":
        """Rows ``[start, stop)``, as views of these columns."""
        rows = slice(start, stop)
        return RequestColumns(
            self.nodes, self.arrival[rows], self.app_index[rows],
            self.ingress[rows], self.demand[rows], self.duration[rows],
        )
