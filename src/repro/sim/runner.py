"""Multi-repetition experiment runner with confidence intervals.

The paper executes every configuration 30 times and reports averages with
confidence intervals; :class:`ParallelRunner` is the generic repetition
engine (serial at ``jobs=1``, a process pool otherwise) and
:func:`confidence_interval` the Student-t interval used for the error bars.

Repetitions are embarrassingly parallel: repetition ``i`` is fully
determined by ``base_seed + i``, so the runner produces bit-identical
metric samples — and therefore bit-identical
:class:`ConfidenceInterval` results — regardless of the job count. The
one exception is metrics that *measure* wall-clock time (the drivers'
``:runtime`` keys): those are genuine timings, never deterministic, and
parallel workers sharing cores will distort them.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.errors import SimulationError

#: Type of one repetition: ``run(seed) -> {metric: value}``.
RunFn = Callable[[int], dict[str, float]]


@dataclass(frozen=True)
class ConfidenceInterval:
    """Sample mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    count: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        return self.low <= other.high and other.low <= self.high


def confidence_interval(
    values: Iterable[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval of the sample mean."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise SimulationError("cannot summarize an empty sample")
    mean = float(array.mean())
    if array.size == 1:
        return ConfidenceInterval(
            mean=mean, half_width=0.0, confidence=confidence, count=1
        )
    sem = float(array.std(ddof=1) / np.sqrt(array.size))
    t_value = float(stats.t.ppf(0.5 + confidence / 2.0, df=array.size - 1))
    return ConfidenceInterval(
        mean=mean,
        half_width=t_value * sem,
        confidence=confidence,
        count=int(array.size),
    )


def _aggregate(
    metric_dicts: Sequence[dict[str, float]],
) -> dict[str, ConfidenceInterval]:
    """Summarize per-repetition metric dicts, in repetition order.

    All repetitions must return the same metric keys; a mismatch names the
    offending repetition and the exact key difference.
    """
    samples: dict[str, list[float]] = {}
    expected: set[str] | None = None
    for repetition, metrics in enumerate(metric_dicts):
        got = set(metrics)
        if expected is None:
            expected = got
        elif got != expected:
            missing = sorted(expected - got)
            unexpected = sorted(got - expected)
            parts = []
            if missing:
                parts.append(f"missing {missing}")
            if unexpected:
                parts.append(f"unexpected {unexpected}")
            raise SimulationError(
                f"repetition {repetition} returned inconsistent metric "
                f"keys: {', '.join(parts)} (relative to repetition 0)"
            )
        for key, value in metrics.items():
            samples.setdefault(key, []).append(float(value))
    return {key: confidence_interval(values) for key, values in samples.items()}


@dataclass(frozen=True)
class ParallelRunner:
    """Fans seeded repetitions out over a process pool.

    ``jobs=1`` is a deterministic serial fallback (no pool, no pickling
    requirement); ``jobs>1`` maps seeds over a
    :class:`~concurrent.futures.ProcessPoolExecutor`, which requires the
    run callable to be picklable (a module-level function or a dataclass
    with ``__call__``). Results are aggregated in repetition order either
    way, so the summaries are identical for every job count.
    """

    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise SimulationError("jobs must be >= 1")

    @classmethod
    def from_jobs(cls, jobs: int | None) -> "ParallelRunner":
        """``jobs=None``/``0`` means "one job per CPU"."""
        if not jobs:
            jobs = os.cpu_count() or 1
        return cls(jobs=jobs)

    def repeat(
        self,
        run: RunFn,
        repetitions: int,
        base_seed: int = 0,
    ) -> dict[str, ConfidenceInterval]:
        """Execute ``run(seed)`` for consecutive seeds and summarize.

        ``run`` returns a flat metric dict; all repetitions must return
        the same keys.
        """
        if repetitions < 1:
            raise SimulationError("need at least one repetition")
        seeds = [base_seed + repetition for repetition in range(repetitions)]
        workers = min(self.jobs, repetitions)
        if workers == 1:
            metric_dicts = [run(seed) for seed in seeds]
        else:
            try:
                metric_dicts = list(_shared_pool(workers).map(run, seeds))
            except BrokenProcessPool:
                # A dead worker poisons the whole executor; evict it so
                # the next repeat() gets a fresh pool. Shut the broken
                # executor down too — surviving workers would otherwise
                # linger as orphaned processes.
                # Parent-only by construction: _shared_pool (the sole
                # pool creator) raises in workers, so this handler can
                # only run in the parent that owns _pools.
                pool = _pools.pop(workers, None)
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                raise
        return _aggregate(metric_dicts)


#: Long-lived executors keyed by worker count — sweeps call ``repeat()``
#: once per point, and re-spawning workers (which re-import numpy/scipy)
#: for every point would dominate small runs. Reaped at interpreter exit.
#:
#: This table (and ``_default_runner`` below) is **parent-process-only**
#: state. Every pool worker imports this module and owns a private copy;
#: a worker mutating its copy would silently diverge from the parent.
#: ``_require_parent_process`` makes that contract loud at runtime
#: (``tests/test_parallel_runner.py::TestWorkerModuleState`` calls each
#: guarded writer from a pool worker).
_pools: dict[int, ProcessPoolExecutor] = {}


def _require_parent_process(what: str) -> None:
    """Fail loudly when pool/runner module state is touched in a worker.

    ``_pools`` and ``_default_runner`` exist once per process; only the
    parent's copies mean anything. Nesting pools inside workers would
    also fork from an inconsistent executor state — refuse outright.
    """
    if multiprocessing.parent_process() is not None:
        raise SimulationError(
            f"{what} is parent-process-only: pool workers hold private "
            "copies of repro.sim.runner's module state (_pools, "
            "_default_runner), and mutating them inside a worker "
            "silently diverges across processes"
        )


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    _require_parent_process("creating a shared process pool")
    pool = _pools.get(workers)
    if pool is None:
        # Guarded above: only the parent ever populates the table.
        pool = _pools[workers] = ProcessPoolExecutor(max_workers=workers)
    return pool


def shutdown_pools(wait: bool = True) -> int:
    """Shut down every shared executor; returns how many were closed.

    Tests (and long-lived embedders) use this to reap worker processes
    deterministically instead of relying on interpreter-exit cleanup.
    """
    closed = 0
    while _pools:
        # Reaps the parent's table; a worker's copy is always empty
        # (workers cannot create pools — _shared_pool raises there).
        _, pool = _pools.popitem()
        pool.shutdown(wait=wait, cancel_futures=True)
        closed += 1
    return closed


#: Process-wide runner used when a driver is not handed one explicitly;
#: the CLI's ``--jobs`` flag swaps it out.
_default_runner = ParallelRunner(jobs=1)


def get_default_runner() -> ParallelRunner:
    """The runner used by drivers when none is passed explicitly."""
    return _default_runner


def set_default_runner(runner: ParallelRunner) -> ParallelRunner:
    """Replace the process-wide default runner; returns the previous one.

    Parent-process-only (see ``_require_parent_process``): a worker
    swapping its private copy would change nothing in the parent and
    desynchronize job counts across the pool.
    """
    _require_parent_process("set_default_runner")
    global _default_runner
    previous = _default_runner
    # Guarded above: the CLI swaps the parent's default runner before
    # any pool exists.
    _default_runner = runner
    return previous
