"""Per-shard session workers: one embedder per shard, checkpoint-first.

A shard worker owns one :class:`~repro.serve.EmbedderService` over its
shard's sub-substrate. Both implementations boot **from a checkpoint**
(:class:`WorkerCheckpoint`) and execute the same command set through
one shared interpreter (:func:`_execute`), so the in-process and the
child-process worker are decision-identical by construction:

* :class:`InlineShardWorker` runs the service in the calling process —
  zero IPC, the deterministic baseline the shard tests drive;
* :class:`ProcessShardWorker` runs it in a child process behind a pipe,
  which is where the aggregate-throughput win comes from: K workers
  embed their shard's slot batch on K cores concurrently.

Everything crossing the process boundary rides the pickle-certified
:class:`~repro.sim.session.SessionSnapshot` surface (the RPS audit of
PR 8 pins that boundary): a worker's boot payload is a serialized
checkpoint, and its per-slot ``checkpoint`` command returns a fresh one
— which is exactly what makes kill-and-restore-on-a-spare bit-identical
to an undisturbed run.

Pool discipline follows :mod:`repro.sim.runner`: spawning workers is a
parent-process-only operation (``_require_parent_process``), and this
module keeps **no** module-level mutable state — every worker's state
lives on the worker object, so nothing can silently diverge between the
parent and its children.
"""

from __future__ import annotations

import multiprocessing
import pickle
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.errors import ShardError
from repro.serve.metrics import MetricsStream
from repro.serve.service import EmbedderService
from repro.sim.runner import _require_parent_process
from repro.sim.session import SessionSnapshot, SimulationSession


def freeze_metrics(metrics: MetricsStream) -> dict:
    """The picklable value-state of a metrics stream.

    Subscribers are live callables (operational wiring, often
    unpicklable) and deliberately stay behind — a restored worker starts
    with the counters and rolling windows of the original but notifies
    nobody until the owning frontend re-subscribes.
    """
    return {
        "window": metrics.window,
        "offers": metrics.offers,
        "accepted": metrics.accepted,
        "rejected": metrics.rejected,
        "shed": metrics.shed,
        "disrupted": metrics.disrupted,
        "slots": metrics.slots,
        "outcomes": list(metrics._outcomes),
        "latencies": list(metrics._latencies),
    }


def thaw_metrics(state: dict) -> MetricsStream:
    """Rebuild a :class:`MetricsStream` from :func:`freeze_metrics` state."""
    metrics = MetricsStream(window=state["window"])
    metrics.offers = state["offers"]
    metrics.accepted = state["accepted"]
    metrics.rejected = state["rejected"]
    metrics.shed = state["shed"]
    metrics.disrupted = state["disrupted"]
    metrics.slots = state["slots"]
    metrics._outcomes = deque(state["outcomes"], maxlen=metrics.window)
    metrics._latencies = deque(state["latencies"], maxlen=metrics.window)
    return metrics


@dataclass(frozen=True)
class WorkerCheckpoint:
    """Everything needed to (re)build one shard's service, by value.

    ``session_bytes`` is the shard session serialized through
    :meth:`~repro.sim.session.SessionSnapshot.to_bytes` — the certified
    pickle boundary: one pickle of the session's durable state, so a
    worker booted from it decides identically. Admission travels as a
    registry name plus factory params (policy *instances* are
    operational objects and stay with their process). ``clock`` is the
    slot the restored service resumes at, recorded so a restore can
    assert it matches the frontend clock.
    """

    shard_id: int
    algorithm: str
    clock: int
    session_bytes: bytes
    admission: str
    admission_params: dict
    metrics_window: int
    metrics_state: dict

    def to_bytes(self) -> bytes:
        """Serialize for shipping to a child process or to disk."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "WorkerCheckpoint":
        try:
            checkpoint = pickle.loads(payload)
        except Exception as error:  # unpickling garbage raises a family of types
            raise ShardError(
                "payload does not contain a WorkerCheckpoint "
                f"({type(error).__name__}: {error})"
            ) from error
        if not isinstance(checkpoint, WorkerCheckpoint):
            raise ShardError(
                "payload does not contain a WorkerCheckpoint"
            )
        return checkpoint

    @classmethod
    def capture(
        cls,
        shard_id: int,
        service: EmbedderService,
        admission: str,
        admission_params: dict,
    ) -> "WorkerCheckpoint":
        """Checkpoint a live service (slot boundaries only)."""
        return cls(
            shard_id=shard_id,
            algorithm=service.algorithm.name,
            clock=service.current_slot,
            session_bytes=service.snapshot().to_bytes(),
            admission=admission,
            admission_params=dict(admission_params),
            metrics_window=service.metrics.window,
            metrics_state=freeze_metrics(service.metrics),
        )


class _WorkerState:
    """One booted shard service plus the metadata to re-checkpoint it."""

    def __init__(self, checkpoint: WorkerCheckpoint) -> None:
        self.shard_id = checkpoint.shard_id
        self.admission = checkpoint.admission
        self.admission_params = dict(checkpoint.admission_params)
        session = SimulationSession.restore(
            SessionSnapshot.from_bytes(checkpoint.session_bytes)
        )
        self.service = EmbedderService(
            session,
            admission=checkpoint.admission,
            admission_params=self.admission_params or None,
            metrics_window=checkpoint.metrics_window,
        )
        self.service.metrics = thaw_metrics(checkpoint.metrics_state)

    def checkpoint(self) -> WorkerCheckpoint:
        return WorkerCheckpoint.capture(
            self.shard_id, self.service, self.admission, self.admission_params
        )


def _execute(state: _WorkerState, command: str, args: tuple) -> Any:
    """Run one worker command — the single interpreter both worker kinds
    share, so inline and child-process execution cannot drift apart."""
    service = state.service
    if command == "offer_run":
        return service.offer_many(args[0])
    if command == "advance_to":
        service.advance_to(args[0])
        return None
    if command == "checkpoint":
        return state.checkpoint().to_bytes()
    if command == "metrics":
        return {
            "slot": service.current_slot,
            "utilization": service.utilization(),
            "pending": service.pending_count,
            **freeze_metrics(service.metrics),
        }
    if command == "result":
        return service.result()
    if command == "finish":
        return service.finish()
    raise ShardError(f"unknown shard-worker command {command!r}")


def _shard_worker_main(conn, payload: bytes) -> None:
    """Child-process entry point: boot from the checkpoint, serve commands.

    The reply envelope is ``("ok", result)`` or ``("error", message)`` —
    exceptions are transported as strings (tracebacks of shard commands
    are actionable in the parent; live exception objects may not
    pickle). ``stop`` acknowledges and exits; a closed pipe (parent
    died) exits silently.
    """
    state = _WorkerState(WorkerCheckpoint.from_bytes(payload))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message[0] == "stop":
            conn.send(("ok", None))
            break
        try:
            result = _execute(state, message[0], tuple(message[1:]))
        except Exception as error:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        else:
            conn.send(("ok", result))
    conn.close()


class InlineShardWorker:
    """A shard worker running in the calling process (no parallelism).

    Commands execute eagerly on :meth:`send` and queue their results for
    :meth:`recv`, preserving the split send/receive calling convention
    the frontend uses to overlap process workers.
    """

    def __init__(self, checkpoint: WorkerCheckpoint) -> None:
        self.shard_id = checkpoint.shard_id
        self._state = _WorkerState(checkpoint)
        self._results: deque[Any] = deque()

    @property
    def alive(self) -> bool:
        return True

    @property
    def service(self) -> EmbedderService:
        """The underlying service (inline workers only — tests peek)."""
        return self._state.service

    def send(self, command: str, *args: Any) -> None:
        self._results.append(_execute(self._state, command, args))

    def recv(self) -> Any:
        return self._results.popleft()

    def call(self, command: str, *args: Any) -> Any:
        self.send(command, *args)
        return self.recv()

    def kill(self) -> None:
        raise ShardError(
            "inline shard workers run in this process and cannot be "
            "killed; use workers='process' for fault injection"
        )

    def close(self) -> None:
        pass


class ProcessShardWorker:
    """A shard worker in a child process behind a duplex pipe.

    The boot payload is the serialized checkpoint; every later exchange
    is one pickled command tuple and one reply envelope. :meth:`send`
    and :meth:`recv` are split so the frontend can broadcast a slot's
    sub-batches to all workers first and collect afterwards — that
    overlap is the aggregate-throughput win.
    """

    def __init__(self, checkpoint: WorkerCheckpoint) -> None:
        # Same discipline as repro.sim.runner's pools: only the parent
        # process may spawn shard workers (nested workers would fork
        # from inconsistent pool state and double-subscribe cores).
        _require_parent_process("spawning a shard worker")
        self.shard_id = checkpoint.shard_id
        context = multiprocessing.get_context()
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, checkpoint.to_bytes()),
            daemon=True,
            name=f"repro-shard-{checkpoint.shard_id}",
        )
        self._process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def send(self, command: str, *args: Any) -> None:
        if not self.alive:
            raise ShardError(
                f"shard worker {self.shard_id} is dead; restore it from "
                "its latest checkpoint first"
            )
        self._conn.send((command, *args))

    def recv(self) -> Any:
        try:
            status, result = self._conn.recv()
        except (EOFError, OSError) as error:
            raise ShardError(
                f"shard worker {self.shard_id} died mid-command "
                f"({type(error).__name__}); restore it from its latest "
                "checkpoint"
            ) from error
        if status == "error":
            raise ShardError(
                f"shard worker {self.shard_id} failed: {result}"
            )
        return result

    def call(self, command: str, *args: Any) -> Any:
        self.send(command, *args)
        return self.recv()

    def kill(self) -> None:
        """Hard-kill the child (fault injection); the object stays dead."""
        self._process.kill()
        self._process.join()
        self._conn.close()

    def close(self) -> None:
        """Graceful shutdown: stop the loop, reap the process."""
        if self.alive:
            try:
                self.call("stop")
            except ShardError:
                pass
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - defensive reap
            self._process.kill()
            self._process.join()
        self._conn.close()


__all__ = [
    "InlineShardWorker",
    "ProcessShardWorker",
    "WorkerCheckpoint",
    "freeze_metrics",
    "thaw_metrics",
]
