"""Per-shard workers: one embedder service per shard, checkpoint-first.

A shard worker owns one :class:`~repro.serve.EmbedderService` over its
shard's sub-substrate. Both implementations boot **from a service
checkpoint** — the bytes of ``EmbedderService.snapshot().to_bytes()`` —
and execute the same command set through one shared interpreter
(:func:`_execute`), so the in-process and the child-process worker are
decision-identical by construction:

* :class:`InlineShardWorker` runs the service in the calling process —
  zero IPC, the deterministic baseline the shard tests drive;
* :class:`ProcessShardWorker` runs it in a child process behind a pipe,
  which is where the aggregate-throughput win comes from: K workers
  embed their shard's slot batch on K cores concurrently.

There is one checkpoint format: a worker's boot payload, its
``checkpoint`` reply and a service snapshot's bytes are the same thing
(:class:`~repro.sim.session.SessionSnapshot`, the pickle boundary
``TestSnapshotPayload`` audits). The service is pickled whole —
session, admission policy state, metrics counters — which is what
makes kill-and-restore-on-a-spare bit-identical to an undisturbed run,
shed offers included. A payload is validated from its header, in the parent,
before anything is unpickled or spawned.

Pool discipline follows :mod:`repro.sim.runner`: spawning workers is a
parent-process-only operation (``_require_parent_process``), and this
module keeps **no** module-level mutable state — every worker's state
lives on the worker object, so nothing can silently diverge between the
parent and its children.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Any

from repro.errors import ShardError, SimulationError
from repro.serve.service import EmbedderService
from repro.sim.runner import _require_parent_process
from repro.sim.session import SessionSnapshot


def read_checkpoint(shard_id: int, payload: bytes) -> SessionSnapshot:
    """Parse a shard checkpoint's header (the body is not unpickled)."""
    try:
        return SessionSnapshot.from_bytes(payload)
    except SimulationError as error:
        raise ShardError(
            f"shard {shard_id}'s checkpoint is unusable: {error}"
        ) from error


def _execute(service: EmbedderService, command: str, args: tuple) -> Any:
    """Run one worker command — the single interpreter both worker kinds
    share, so inline and child-process execution cannot drift apart."""
    if command == "offer_run":
        return service.offer_many(args[0])
    if command == "advance_to":
        service.advance_to(args[0])
        return None
    if command == "checkpoint":
        return service.snapshot().to_bytes()
    if command == "metrics":
        return service.metrics, service.utilization(), service.pending_count
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
    service = EmbedderService.restore(SessionSnapshot.from_bytes(payload))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message[0] == "stop":
            conn.send(("ok", None))
            break
        try:
            result = _execute(service, message[0], tuple(message[1:]))
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

    def __init__(self, shard_id: int, payload: bytes) -> None:
        self.shard_id = shard_id
        #: The underlying service (inline workers only — tests peek).
        self.service = EmbedderService.restore(
            read_checkpoint(shard_id, payload)
        )
        self._results: deque[Any] = deque()

    @property
    def alive(self) -> bool:
        return True

    def send(self, command: str, *args: Any) -> None:
        self._results.append(_execute(self.service, command, args))

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

    The boot payload is a serialized service checkpoint, refused from its
    header before a child is spawned; every later exchange
    is one pickled command tuple and one reply envelope. :meth:`send`
    and :meth:`recv` are split so the frontend can broadcast a slot's
    sub-batches to all workers first and collect afterwards — that
    overlap is the aggregate-throughput win.
    """

    def __init__(self, shard_id: int, payload: bytes) -> None:
        # Same discipline as repro.sim.runner's pools: only the parent
        # process may spawn shard workers (nested workers would fork
        # from inconsistent pool state and double-subscribe cores).
        _require_parent_process("spawning a shard worker")
        read_checkpoint(shard_id, payload)
        self.shard_id = shard_id
        context = multiprocessing.get_context()
        self._conn, child_conn = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, payload),
            daemon=True,
            name=f"repro-shard-{shard_id}",
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


__all__ = ["InlineShardWorker", "ProcessShardWorker", "read_checkpoint"]
