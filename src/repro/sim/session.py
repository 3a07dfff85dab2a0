"""Streaming simulation sessions — the incremental heart of the engine.

The batch :func:`repro.sim.engine.simulate` entry point demands the full
request trace upfront and blocks until the horizon ends. Everything
below it, however, is already incremental: departures, events and
arrivals are applied slot by slot, and every algorithm keeps explicit
residual state. :class:`SimulationSession` exposes that incrementality
as a first-class lifecycle:

* ``submit(request)`` admits an ad-hoc arrival at any future slot —
  the session is an open system, not a replayer;
* ``step()`` / ``run_until(t)`` advance one slot at a time, yielding a
  :class:`SlotReport` per slot (decisions, departures, disruptions,
  demand and cost);
* ``begin_slot()`` / ``process(request)`` / ``close_slot()`` split one
  slot further, so a service layer (:mod:`repro.serve`) can hand
  same-slot arrivals to the algorithm *while the slot is open* and
  return each decision synchronously;
* ``snapshot()`` / :meth:`SimulationSession.restore` checkpoint and
  resume mid-run state — algorithm residuals, pending arrivals, the
  event cursor and all accumulated metrics;
* ``result()`` assembles the exact
  :class:`~repro.sim.engine.SimulationResult` the batch engine returns.

Equivalence contract: driving a session ``step()`` by ``step()`` over a
pre-submitted trace — or restoring a mid-run snapshot and continuing —
is **bit-identical** to ``simulate()`` over the same trace (the batch
wrapper literally runs a session). The differential oracle in
``tests/test_event_oracle.py`` pins this for every algorithm × event
profile.

Per-slot order matches Fig. 2 / OLIVE Algorithm 2 exactly: departures
are released first, then the slot's capacity events are applied, then
arrivals are processed in ``(arrival, id)`` order. Two algorithm shapes
are supported — per-request algorithms (OLIVE, QUICKG, FULLG) expose
``process(request) → Decision`` and may take mid-slot arrivals; batch
algorithms (SLOTOFF) expose ``run_slot(t, arrivals)``, which consumes
the whole slot at ``close_slot()`` time, so they can be stepped and
checkpointed but not offered mid-slot arrivals.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TypeVar

import numpy as np

from repro.core.olive import Decision
from repro.errors import SimulationError
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.events import EventCursor, EventSchedule
    from repro.sim.engine import SimulationResult


@dataclass(frozen=True)
class SlotReport:
    """Everything that happened in one simulated slot.

    ``step()``/``close_slot()`` return one per slot; a service layer
    streams them into rolling metrics. ``preempted``/``disrupted`` list
    the requests dropped in this slot (disrupted is the event-driven
    subset of preempted, mirroring
    :class:`~repro.sim.engine.SimulationResult`).
    """

    slot: int
    decisions: tuple[Decision, ...]
    departures: tuple[Request, ...]
    preempted: tuple[Request, ...]
    disrupted: tuple[Request, ...]
    #: Capacity events applied at the start of this slot.
    num_events: int
    requested_demand: float
    allocated_demand: float
    resource_cost: float
    #: Wall-clock seconds spent inside the algorithm for this slot.
    runtime_seconds: float

    @property
    def num_accepted(self) -> int:
        return sum(1 for d in self.decisions if d.accepted)

    @property
    def num_rejected(self) -> int:
        return len(self.decisions) - self.num_accepted


#: First element of the header pickled ahead of a checkpoint's body.
_SNAPSHOT_TAG = "repro.SessionSnapshot/1"

_Root = TypeVar("_Root")


@dataclass(frozen=True)
class SessionSnapshot:
    """An opaque checkpoint of a session at a slot boundary.

    Holds the session — or the :class:`~repro.serve.EmbedderService`
    that owns it, when the service took the checkpoint — **serialized
    once**: a small pickled header ``(tag, clock, algorithm name, body
    length)`` followed by the pickled object. The bytes are immutable,
    so the checkpoint is isolated from the live session by construction,
    and every ``restore`` unpickles a fresh object from them — one
    snapshot can seed any number of resumed runs.
    ``to_bytes()`` returns those bytes as they are; ``from_bytes()``
    reads only the header, so ``clock``/``algorithm_name`` are answered
    and a foreign or truncated payload is refused without loading the
    session.

    The payload is durable state — residuals, active set, pending
    arrivals, event cursor, decision log, metric arrays, counters — plus
    the small app-profile cache; no routing state outlives an embed, so
    a restored session decides identically.

    Taking a checkpoint costs what changed since the previous one: the
    decision log and the OLIVE-family active table ride as ``bytes``
    sealed by earlier checkpoints (``SimulationSession.__getstate__``,
    ``OliveAlgorithm.__getstate__``), and only the decisions and
    allocations made since are pickled. A payload is nevertheless
    self-contained — it carries every sealed segment, not a reference
    to an earlier checkpoint — so any one of them restores on its own.
    """

    _payload: bytes = field(repr=False)
    #: The next slot the restored session will execute.
    clock: int
    algorithm_name: str

    def to_bytes(self) -> bytes:
        """The serialized checkpoint, for on-disk persistence or IPC."""
        return self._payload

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SessionSnapshot":
        """Rebuild a snapshot previously serialized with :meth:`to_bytes`."""
        clock, algorithm_name, _ = _parse_header(payload)
        return cls(payload, clock, algorithm_name)


def _parse_header(payload: bytes) -> tuple[int, str, int]:
    """``(clock, algorithm name, body offset)`` of a serialized checkpoint.

    Anything that is not a complete checkpoint — empty, truncated, or
    some other pickle — raises :class:`~repro.errors.SimulationError`.
    """
    stream = io.BytesIO(payload)
    try:
        header = pickle.load(stream)
    except Exception as error:  # unpickling garbage raises a family of types
        raise SimulationError(
            "payload does not contain a SimulationSession checkpoint "
            f"({type(error).__name__}: {error})"
        ) from error
    if not (
        isinstance(header, tuple)
        and len(header) == 4
        and header[0] == _SNAPSHOT_TAG
    ):
        raise SimulationError(
            "payload does not contain a SimulationSession checkpoint"
        )
    _, clock, algorithm_name, body_length = header
    body_at = stream.tell()
    if len(payload) - body_at != body_length:
        raise SimulationError(
            f"session checkpoint is truncated: its header promises "
            f"{body_length} body bytes, the payload holds "
            f"{len(payload) - body_at}"
        )
    return clock, algorithm_name, body_at


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for one (un)pickle call.

    Unpickling only allocates, and a pickler's memo holds every
    temporary until the dump ends, so neither frees anything the
    collector could reclaim — but their object counts keep tripping
    collections that walk the whole heap each time: 75–85 % of a
    restore's wall time on the benchmark sessions. The collector is
    left as it was found.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def dump_checkpoint(
    root: Any, session: "SimulationSession"
) -> SessionSnapshot:
    """Pickle ``root`` once, behind the header that describes ``session``.

    ``root`` is the session itself or the service that owns it — the two
    checkpoint units; both share this envelope, so one ``from_bytes``
    reads either.
    """
    if session.slot_open:
        raise SimulationError(
            f"slot {session.clock} is open; close_slot() before snapshot()"
        )
    with _collector_paused():
        body = pickle.dumps(root, protocol=pickle.HIGHEST_PROTOCOL)
    name = session.algorithm.name
    header = pickle.dumps(
        (_SNAPSHOT_TAG, session.clock, name, len(body)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return SessionSnapshot(header + body, session.clock, name)


def load_checkpoint(snapshot: SessionSnapshot, kind: type[_Root]) -> _Root:
    """Unpickle a checkpoint's body; it must hold a ``kind``."""
    payload = snapshot._payload
    _, _, body_at = _parse_header(payload)
    with _collector_paused():
        root = pickle.loads(memoryview(payload)[body_at:])
    if not isinstance(root, kind):
        raise SimulationError(
            f"snapshot holds a {type(root).__name__}, not a {kind.__name__}"
        )
    return root


class SimulationSession:
    """One algorithm driven slot-by-slot over an online request stream.

    ``requests`` seeds the scheduled arrivals (may be empty for a purely
    live session fed through :meth:`submit`/:meth:`process`); ``events``
    is an optional :class:`~repro.scenarios.events.EventSchedule` whose
    workload events transform the seed stream upfront and whose capacity
    events are consumed slot-by-slot through a resumable
    :class:`~repro.scenarios.events.EventCursor`.
    """

    def __init__(
        self,
        algorithm: Any,
        requests: list[Request] | tuple[Request, ...] = (),
        num_slots: int = 0,
        events: "EventSchedule | None" = None,
    ) -> None:
        if num_slots <= 0:
            raise SimulationError(
                f"session needs a positive horizon (got {num_slots} slots)"
            )
        self.algorithm = algorithm
        requests = requests if isinstance(requests, list) else list(requests)
        if events is not None and not events.is_empty:
            # Fail fast on events referencing unknown substrate elements —
            # a bad schedule should not die mid-run with a raw KeyError.
            substrate = getattr(algorithm, "substrate", None)
            if substrate is not None:
                events.validate(substrate)
            # Workload events rewrite the stream deterministically before
            # the run; every compared algorithm sees the identical
            # perturbed trace (the paper's same-trace methodology). The
            # input is not mutated, and the schedule memoizes the
            # transform per input list (identity-keyed — which is why the
            # caller's list goes in as-is), so simulating several
            # algorithms over one stream pays for it once.
            requests = events.transform_requests(requests)
            if events.has_capacity_events and not hasattr(
                algorithm, "apply_events"
            ):
                raise SimulationError(
                    f"algorithm {algorithm.name!r} does not support "
                    "dynamic capacity events (no apply_events method)"
                )
            if events.max_event_slot >= num_slots:
                # Mirror the out-of-horizon request check below: an event
                # (or injected arrival) past the last slot would silently
                # never fire.
                raise SimulationError(
                    f"event schedule needs slot {events.max_event_slot}, "
                    f"beyond the {num_slots}-slot horizon"
                )
            self.events: "EventSchedule | None" = events
        else:
            self.events = None
        requests = sorted(requests)
        self.num_slots = num_slots
        for request in requests:
            if request.arrival >= num_slots:
                raise SimulationError(
                    f"request {request.id} arrives at {request.arrival}, "
                    f"beyond the {num_slots}-slot horizon"
                )

        # Calendars of what is still ahead: begin_slot() pops the slot's
        # departures, close_slot() its arrivals.
        self._arrivals_by_slot: dict[int, list[Request]] = {}
        self._departures_by_slot: dict[int, list[Request]] = {}
        for request in requests:
            self._arrivals_by_slot.setdefault(request.arrival, []).append(
                request
            )
            if request.departure < num_slots:
                self._departures_by_slot.setdefault(
                    request.departure, []
                ).append(request)
        self._pending_arrivals = len(requests)

        self._clock = 0
        self._slot_open = False
        self._is_batch = hasattr(algorithm, "run_slot")
        self._event_cursor: "EventCursor | None" = (
            self.events.cursor() if self.events is not None else None
        )

        # Accumulated run state (what result() assembles).
        self._decisions: list[Decision] = []
        # The log's checkpointed prefix, pickled: one segment per
        # checkpoint that found new decisions (see __getstate__).
        self._sealed_segments: list[bytes] = []
        self._sealed_decisions = 0
        self._preemptions: list[tuple[Request, int]] = []
        self._disruptions: list[tuple[Request, int]] = []
        # Workload events were already consumed transforming the seed
        # stream above; capacity events add to the tally as slots open.
        self._num_workload_events = (
            self.events.num_workload_events if self.events is not None else 0
        )
        self._requested = np.zeros(num_slots)
        self._allocated = np.zeros(num_slots)
        self._resource_cost = np.zeros(num_slots)
        self._runtime = 0.0

        # Per-open-slot scratch (only meaningful while _slot_open).
        self._slot_departures: tuple[Request, ...] = ()
        self._slot_decisions_from = 0
        self._slot_preemptions_from = 0
        self._slot_disruptions_from = 0
        self._slot_events = 0
        self._slot_runtime = 0.0

    # -- introspection -------------------------------------------------------

    @property
    def clock(self) -> int:
        """The slot currently open, or the next slot to execute."""
        return self._clock

    @property
    def slot_open(self) -> bool:
        """Whether a slot is currently open (mid-``begin``/``close``)."""
        return self._slot_open

    @property
    def is_done(self) -> bool:
        """Whether every slot of the horizon has been executed."""
        return self._clock >= self.num_slots and not self._slot_open

    @property
    def supports_streaming(self) -> bool:
        """Whether the algorithm can take mid-slot arrivals (per-request
        shape); batch algorithms (SLOTOFF) consume whole slots only."""
        return not self._is_batch

    @property
    def pending_arrivals(self) -> int:
        """Scheduled arrivals not yet handed to the algorithm — the
        admission queue a service layer bounds (backpressure)."""
        return self._pending_arrivals

    # -- admitting arrivals --------------------------------------------------

    def submit(self, request: Request) -> None:
        """Schedule an ad-hoc arrival for a future slot.

        The request joins the pending arrivals exactly as if it had been
        part of the seed trace: it is processed in ``(arrival, id)``
        order within its slot, its departure releases capacity like any
        other, and an attached schedule's ingress migrations re-home it
        just like they rewrote the seed stream. The target slot must not
        have begun yet — arrivals for the currently open slot go through
        :meth:`process` instead.
        """
        if self.events is not None:
            request = self.events.apply_migrations(request)
        if request.arrival >= self.num_slots:
            raise SimulationError(
                f"request {request.id} arrives at {request.arrival}, "
                f"beyond the {self.num_slots}-slot horizon"
            )
        if request.arrival < self._clock or (
            self._slot_open and request.arrival == self._clock
        ):
            raise SimulationError(
                f"request {request.id} arrives at {request.arrival}, but "
                f"slot {self._clock} has already "
                + ("begun" if self._slot_open else "passed")
                + "; submit() admits future slots only"
            )
        bisect.insort(
            self._arrivals_by_slot.setdefault(request.arrival, []), request
        )
        if request.departure < self.num_slots:
            bisect.insort(
                self._departures_by_slot.setdefault(request.departure, []),
                request,
            )
        self._pending_arrivals += 1

    # -- the slot lifecycle --------------------------------------------------

    def begin_slot(self) -> None:
        """Open the next slot: departures, capacity events, scheduled
        arrivals — everything that happens at slot start, in the batch
        engine's exact order. Mid-slot arrivals may then be handed to
        :meth:`process` until :meth:`close_slot` seals the slot.
        """
        if self._slot_open:
            raise SimulationError(f"slot {self._clock} is already open")
        if self._clock >= self.num_slots:
            raise SimulationError(
                f"session already ran its {self.num_slots}-slot horizon"
            )
        t = self._clock
        arrivals = self._arrivals_by_slot.get(t, ())
        self._pending_arrivals -= len(arrivals)
        self._requested[t] = sum(r.demand for r in arrivals)
        self._slot_departures = tuple(self._departures_by_slot.pop(t, ()))
        self._slot_decisions_from = len(self._decisions)
        self._slot_preemptions_from = len(self._preemptions)
        self._slot_disruptions_from = len(self._disruptions)
        self._slot_events = 0
        self._slot_open = True

        algorithm = self.algorithm
        release = algorithm.release
        start = time.perf_counter()  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
        for request in self._slot_departures:
            release(request)
        if self._event_cursor is not None:
            slot_events = self._event_cursor.advance(t)
            if slot_events:
                self._slot_events = len(slot_events)
                dropped = algorithm.apply_events(
                    t, slot_events, self._event_cursor.schedule.policy
                )
                for request in dropped:
                    self._disruptions.append((request, t))
                    self._preemptions.append((request, t))
        on_slot = getattr(algorithm, "on_slot", None)
        if on_slot is not None:
            on_slot(t)
        if not self._is_batch and arrivals:
            self._commit_run(arrivals)
        self._slot_runtime = time.perf_counter() - start  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens

    def process(self, request: Request) -> Decision:
        """Hand one mid-slot arrival to the algorithm, synchronously.

        The slot must be open and the request must arrive in it; batch
        algorithms cannot take mid-slot arrivals (their whole slot is
        solved at once) — :meth:`submit` the request instead. An attached
        schedule's ingress migrations re-home the request exactly like a
        trace arrival in the same window. This is the primitive
        :class:`repro.serve.EmbedderService` micro-batches same-slot
        offers through.
        """
        if self.events is not None:
            request = self.events.apply_migrations(request)
        if not self._slot_open:
            raise SimulationError(
                f"no slot is open (clock at {self._clock}); call "
                "begin_slot() first"
            )
        if self._is_batch:
            raise SimulationError(
                f"algorithm {self.algorithm.name!r} solves whole slots at "
                "once (batch shape) and cannot take mid-slot arrivals; "
                "submit() the request for a future slot instead"
            )
        t = self._clock
        if request.arrival != t:
            raise SimulationError(
                f"request {request.id} arrives at {request.arrival}, but "
                f"the open slot is {t}"
            )
        start = time.perf_counter()  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
        decision = self.algorithm.process(request)
        self._slot_runtime += time.perf_counter() - start  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
        self._book((request,))
        self._decisions.append(decision)
        if decision.preempted:
            self._preemptions.extend((r, t) for r in decision.preempted)
        return decision

    def process_many(
        self,
        requests: list[Request],
        *,
        decide: Callable[[Request], str | None] | None = None,
    ) -> list["Decision | None"]:
        """Hand a same-slot run of arrivals to the algorithm in one call.

        Sequential-equivalent to calling :meth:`process` per request in
        order — identical decisions, identical residual trajectory,
        identical log when the algorithm raises mid-run — but the
        per-offer plumbing (migration application, departure
        registration, timing) is paid once per run.

        ``decide`` is an optional admission hook called with each
        *original* request immediately before it would commit (so a
        stateful policy observes exactly the interleaving sequential
        offers would produce); a non-None reason sheds the request —
        the algorithm never sees it and the returned list carries
        ``None`` at its position. This is the primitive
        :meth:`repro.serve.EmbedderService.offer_many` drives.
        """
        if not self._slot_open:
            raise SimulationError(
                f"no slot is open (clock at {self._clock}); call "
                "begin_slot() first"
            )
        if self._is_batch:
            raise SimulationError(
                f"algorithm {self.algorithm.name!r} solves whole slots at "
                "once (batch shape) and cannot take mid-slot arrivals; "
                "submit() the request for a future slot instead"
            )
        if not requests:
            return []
        migrated = (
            [self.events.apply_migrations(r) for r in requests]
            if self.events is not None
            else requests
        )
        if decide is None:
            return self._process_run_bulk(migrated)
        t = self._clock
        decisions = self._decisions
        preemptions = self._preemptions
        process = self.algorithm.process
        outcomes: list[Decision | None] = []
        decided: list[Request] = []
        start = time.perf_counter()  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
        try:
            for original, request in zip(requests, migrated):
                if decide(original) is not None:
                    outcomes.append(None)
                    continue
                if request.arrival != t:
                    raise SimulationError(
                        f"request {request.id} arrives at "
                        f"{request.arrival}, but the open slot is {t}"
                    )
                decision = process(request)
                decided.append(request)
                decisions.append(decision)
                if decision.preempted:
                    preemptions.extend((r, t) for r in decision.preempted)
                outcomes.append(decision)
        finally:
            self._slot_runtime += time.perf_counter() - start  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
            self._book(decided)
        return outcomes

    def _process_run_bulk(
        self, migrated: list[Request]
    ) -> list["Decision | None"]:
        """No-shed run: one tight run, then the session's bookkeeping.

        With no admission hook there is nothing to interleave, so the
        whole run goes through :meth:`_commit_run` — the exact call
        :meth:`begin_slot` makes for scheduled arrivals — instead of a
        per-request session loop. Demand and departures are booked
        afterwards, for the prefix the algorithm decided (all of the run
        unless it raised), in arrival order: the same float sum and the
        same calendar as per-request :meth:`process` calls.
        """
        t = self._clock
        for request in migrated:
            if request.arrival != t:
                raise SimulationError(
                    f"request {request.id} arrives at "
                    f"{request.arrival}, but the open slot is {t}"
                )
        first = len(self._decisions)
        start = time.perf_counter()  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
        try:
            self._commit_run(migrated)
        finally:
            self._slot_runtime += time.perf_counter() - start  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
            self._book(migrated[:len(self._decisions) - first])
        return self._decisions[first:]

    def _book(self, decided: Sequence[Request]) -> None:
        """Count the demand and register the departures of ``decided``.

        Every mid-slot lane calls this only for requests the algorithm
        returned a decision for: an offer it refused (it raised) leaves
        no demand and no departure behind. One float accumulator adding
        in arrival order, so the sum is the same whichever lane booked.
        """
        t = self._clock
        num_slots = self.num_slots
        departures = self._departures_by_slot
        total = float(self._requested[t])
        for request in decided:
            total += request.demand
            if request.departure < num_slots:
                bisect.insort(
                    departures.setdefault(request.departure, []), request
                )
        self._requested[t] = total

    def _commit_run(self, run: Sequence[Request]) -> None:
        """Process ``run`` in order, logging decisions and preemptions.

        The log grows as the algorithm commits (``extend`` appends each
        decision as ``map`` yields it), so an error mid-run leaves it
        holding exactly the decisions made before it — what per-request
        :meth:`process` calls would have logged.
        """
        t = self._clock
        decisions = self._decisions
        first = len(decisions)
        try:
            decisions.extend(map(self.algorithm.process, run))
        finally:
            preemptions = self._preemptions
            for decision in decisions[first:]:
                if decision.preempted:
                    preemptions.extend((r, t) for r in decision.preempted)

    def close_slot(self) -> SlotReport:
        """Seal the open slot: run a batch algorithm's slot solve, record
        the per-slot metrics, advance the clock, and report the slot."""
        if not self._slot_open:
            raise SimulationError(
                f"no slot is open (clock at {self._clock}); nothing to close"
            )
        t = self._clock
        arrivals = self._arrivals_by_slot.pop(t, ())
        if self._is_batch:
            start = time.perf_counter()  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
            slot_result = self.algorithm.run_slot(t, list(arrivals))
            self._slot_runtime += time.perf_counter() - start  # repro-lint: allow[RPR003] feeds SlotReport.runtime -> slots_per_second/requests_per_second, key-only in goldens
            self._decisions.extend(slot_result.decisions)
            self._preemptions.extend((r, t) for r in slot_result.dropped)
        self._allocated[t] = self.algorithm.active_demand()
        self._resource_cost[t] = self.algorithm.active_cost_per_slot()
        self._runtime += self._slot_runtime
        report = SlotReport(
            slot=t,
            decisions=tuple(self._decisions[self._slot_decisions_from:]),
            departures=self._slot_departures,
            preempted=tuple(
                r for r, _ in self._preemptions[self._slot_preemptions_from:]
            ),
            disrupted=tuple(
                r for r, _ in self._disruptions[self._slot_disruptions_from:]
            ),
            num_events=self._slot_events,
            requested_demand=float(self._requested[t]),
            allocated_demand=float(self._allocated[t]),
            resource_cost=float(self._resource_cost[t]),
            runtime_seconds=self._slot_runtime,
        )
        self._slot_open = False
        self._slot_departures = ()
        self._slot_runtime = 0.0
        self._clock = t + 1
        return report

    def step(self) -> SlotReport:
        """Execute the next slot end-to-end and report it."""
        self.begin_slot()
        return self.close_slot()

    def run_until(self, slot: int) -> list[SlotReport]:
        """Execute slots until the clock reaches ``slot`` (exclusive).

        Returns one :class:`SlotReport` per executed slot; a no-op (empty
        list) when the clock is already there.
        """
        if self._slot_open:
            raise SimulationError(
                f"slot {self._clock} is open; close_slot() before advancing"
            )
        if slot > self.num_slots:
            raise SimulationError(
                f"run_until({slot}) exceeds the {self.num_slots}-slot horizon"
            )
        if slot < self._clock:
            raise SimulationError(
                f"run_until({slot}) lies in the past (clock at {self._clock})"
            )
        return [self.step() for _ in range(slot - self._clock)]

    def run(self) -> "SimulationResult":
        """Execute every remaining slot and assemble the final result."""
        self.run_until(self.num_slots)
        return self.result()

    def __iter__(self) -> Iterator[SlotReport]:
        """Yield one :class:`SlotReport` per remaining slot."""
        while not self.is_done:
            yield self.step()

    # -- results -------------------------------------------------------------

    def result(self) -> "SimulationResult":
        """Assemble the accumulated state into a
        :class:`~repro.sim.engine.SimulationResult`.

        After a full run this is bit-identical to what the batch engine
        returns for the same stream. Mid-run it is a valid partial
        result: per-slot arrays beyond the clock are still zero, and
        ``num_slots`` remains the full horizon.
        """
        if self._slot_open:
            raise SimulationError(
                f"slot {self._clock} is open; close_slot() before result()"
            )
        from repro.sim.engine import SimulationResult

        num_events = self._num_workload_events
        if self._event_cursor is not None:
            num_events += self._event_cursor.consumed
        return SimulationResult(
            algorithm_name=self.algorithm.name,
            num_slots=self.num_slots,
            decisions=list(self._decisions),
            preemptions=list(self._preemptions),
            requested_demand=self._requested.copy(),
            allocated_demand=self._allocated.copy(),
            resource_cost=self._resource_cost.copy(),
            runtime_seconds=self._runtime,
            disruptions=list(self._disruptions),
            num_events=num_events,
        )

    # -- checkpoint / resume -------------------------------------------------

    def snapshot(self) -> SessionSnapshot:
        """Checkpoint the full mid-run state at a slot boundary.

        The session is pickled once, here; the snapshot holds the bytes.
        Everything the run depends on is captured by value — algorithm
        residuals, pending arrivals, the event cursor, accumulated
        decisions and metric arrays — so restoring and continuing is
        bit-identical to never having stopped. Decisions already sealed
        by an earlier checkpoint are not pickled again (see
        :meth:`__getstate__`). Snapshots are only available between
        slots (open slots hold half-applied state).
        """
        return dump_checkpoint(self, self)

    @classmethod
    def restore(cls, snapshot: SessionSnapshot) -> "SimulationSession":
        """A live session resumed from a checkpoint.

        One ``pickle.loads`` of the snapshot's bytes; the snapshot itself
        is immutable, so the same checkpoint can seed several resumed
        runs (e.g. replaying a tail under different what-if
        submissions).
        """
        return load_checkpoint(snapshot, cls)

    def __getstate__(self) -> dict:
        """The session's state with the decision log as pickled segments.

        A logged :class:`Decision` never changes again, so each is
        pickled exactly once: the decisions logged since the previous
        pickling are sealed into one more immutable ``bytes`` segment,
        and the segments ride in place of the list — a copy of bytes,
        whatever the length of the run. The log still travels whole, so
        a payload stays self-contained.
        """
        fresh = self._decisions[self._sealed_decisions:]
        if fresh:
            self._sealed_segments.append(
                pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self._sealed_decisions = len(self._decisions)
        state = self.__dict__.copy()
        del state["_decisions"]
        state["_sealed_segments"] = list(self._sealed_segments)
        return state

    def __setstate__(self, state: dict) -> None:
        """Reassemble the log from its segments, in order, and keep them:
        the restored session's next checkpoint is incremental too."""
        self.__dict__.update(state)
        self._decisions = [
            decision
            for segment in self._sealed_segments
            for decision in pickle.loads(segment)
        ]

    def __repr__(self) -> str:
        state = "open" if self._slot_open else "idle"
        return (
            f"SimulationSession({self.algorithm.name!r}, "
            f"slot {self._clock}/{self.num_slots} {state}, "
            f"{self._pending_arrivals} pending)"
        )
