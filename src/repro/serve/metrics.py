"""Rolling service metrics — what an operator watches, streamed.

:class:`MetricsStream` accumulates per-offer and per-slot observations
with bounded memory (latency percentiles and rolling rates come from a
fixed-size window) and publishes immutable :class:`ServiceMetrics`
snapshots: pull the latest with :attr:`MetricsStream.latest`, or
subscribe a callback to receive one after every closed slot — that is
the "stream" in the name; the service emits, subscribers render.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.sim.session import SlotReport


@dataclass(frozen=True)
class ServiceMetrics:
    """One immutable snapshot of the service's health."""

    #: Slot the snapshot was taken at (the service clock).
    slot: int
    #: Cumulative offers seen (admitted or shed).
    offers: int
    #: Cumulative offers the algorithm accepted.
    accepted: int
    #: Cumulative offers the algorithm rejected.
    rejected: int
    #: Cumulative offers shed by admission policy / backpressure
    #: (never reached the algorithm).
    shed: int
    #: Scheduled arrivals not yet handed to the algorithm.
    pending: int
    #: Mean substrate node utilization in [0, 1].
    utilization: float
    #: Cumulative accepted / offered (1.0 before any offer).
    acceptance_rate: float
    #: Acceptance rate over the rolling window only.
    rolling_acceptance_rate: float
    #: Decision latency percentiles over the rolling window, in
    #: milliseconds (0.0 before any timed offer).
    p50_latency_ms: float
    p99_latency_ms: float
    #: Cumulative requests dropped by dynamic events (disruptions).
    disrupted: int
    #: Cumulative accepted requests dropped before their departure — by
    #: OLIVE's PREEMPT or by a dynamic event (``disrupted`` is that
    #: subset). The paper's rejection metric counts these as rejections;
    #: ``acceptance_rate`` does not.
    preempted: int

    def describe(self) -> str:
        """One operator-readable status line."""
        return (
            f"slot {self.slot}: {self.offers} offers, "
            f"{self.acceptance_rate:.1%} accepted "
            f"(rolling {self.rolling_acceptance_rate:.1%}), "
            f"{self.shed} shed, {self.preempted} preempted, "
            f"util {self.utilization:.1%}, "
            f"latency p50 {self.p50_latency_ms:.3f}ms "
            f"p99 {self.p99_latency_ms:.3f}ms"
        )


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty).

    True nearest-rank definition: the smallest value with at least
    ``fraction`` of the sample at or below it — rank
    ``ceil(fraction * n) - 1`` (0-based), clamped to the ends. Matches
    ``numpy.percentile(..., method="inverted_cdf")`` exactly.
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    rank = min(n - 1, max(0, math.ceil(fraction * n) - 1))
    return sorted_values[rank]


class MetricsStream:
    """Bounded-memory rolling metrics with push-based snapshots.

    ``window`` caps how many recent offers feed the rolling acceptance
    rate and the latency percentiles; cumulative counters are exact
    regardless. Subscribers registered with :meth:`subscribe` receive a
    :class:`ServiceMetrics` after every slot the owning service closes.
    """

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError(f"metrics window must be >= 1 (got {window})")
        self.window = window
        self._latencies: deque[float] = deque(maxlen=window)
        self._outcomes: deque[bool] = deque(maxlen=window)
        self.offers = 0
        self.accepted = 0
        self.rejected = 0
        self.shed = 0
        self.disrupted = 0
        self.preempted = 0
        self.slots = 0
        self._subscribers: list[Callable[[ServiceMetrics], None]] = []
        self._latest: ServiceMetrics | None = None

    def __getstate__(self) -> dict:
        # Subscribers are live callables wired up by the owning process;
        # counters and windows travel with a checkpoint, they do not.
        return {**self.__dict__, "_subscribers": []}

    @classmethod
    def merged(cls, streams: "Sequence[MetricsStream]") -> "MetricsStream":
        """One stream holding ``streams``' summed counters and their
        concatenated windows (what a sharded frontend reports)."""
        total = cls(window=sum(stream.window for stream in streams))
        for stream in streams:
            total.offers += stream.offers
            total.accepted += stream.accepted
            total.rejected += stream.rejected
            total.shed += stream.shed
            total.disrupted += stream.disrupted
            total.preempted += stream.preempted
            total.slots += stream.slots
            total._outcomes.extend(stream._outcomes)
            total._latencies.extend(stream._latencies)
        return total

    # -- recording -----------------------------------------------------------

    def record_offer(self, accepted: bool, latency_seconds: float) -> None:
        """One offer that reached the algorithm."""
        self.offers += 1
        if accepted:
            self.accepted += 1
        else:
            self.rejected += 1
        self._outcomes.append(accepted)
        self._latencies.append(latency_seconds)

    def record_offers(
        self, accepted_flags: list[bool], latency_seconds: float
    ) -> None:
        """A run of offers sharing one amortized per-offer latency.

        Equivalent to calling :meth:`record_offer` once per flag with
        the same latency — the bulk entry point
        (:meth:`~repro.serve.service.EmbedderService.offer_many`) uses
        it so per-offer accounting stays off the batched hot path.
        """
        n = len(accepted_flags)
        accepted = sum(accepted_flags)
        self.offers += n
        self.accepted += accepted
        self.rejected += n - accepted
        self._outcomes.extend(accepted_flags)
        self._latencies.extend([latency_seconds] * n)

    def record_shed(self) -> None:
        """One offer shed by admission policy or backpressure.

        Shed offers count toward the offer totals (an operator sees the
        full arrival pressure) but not toward the rolling acceptance
        window or the latency percentiles — they carry no algorithm
        decision.
        """
        self.offers += 1
        self.shed += 1

    def record_slot(self, report: SlotReport) -> None:
        """Fold one closed slot's report into the counters."""
        self.slots += 1
        self.disrupted += len(report.disrupted)
        self.preempted += len(report.preempted)

    # -- publishing ----------------------------------------------------------

    def subscribe(self, callback: Callable[[ServiceMetrics], None]) -> None:
        """Receive a snapshot after every slot the service closes."""
        self._subscribers.append(callback)

    @property
    def latest(self) -> ServiceMetrics | None:
        """The most recently emitted snapshot (None before the first)."""
        return self._latest

    def snapshot(
        self, slot: int, utilization: float, pending: int
    ) -> ServiceMetrics:
        """Assemble a point-in-time snapshot (does not notify anyone)."""
        latencies = sorted(self._latencies)
        outcomes = self._outcomes
        rolling = (
            sum(outcomes) / len(outcomes) if outcomes
            else 1.0
        )
        return ServiceMetrics(
            slot=slot,
            offers=self.offers,
            accepted=self.accepted,
            rejected=self.rejected,
            shed=self.shed,
            pending=pending,
            utilization=utilization,
            acceptance_rate=(
                self.accepted / self.offers if self.offers else 1.0
            ),
            rolling_acceptance_rate=rolling,
            p50_latency_ms=_percentile(latencies, 0.50) * 1e3,
            p99_latency_ms=_percentile(latencies, 0.99) * 1e3,
            disrupted=self.disrupted,
            preempted=self.preempted,
        )

    def emit(
        self, slot: int, utilization: float, pending: int
    ) -> ServiceMetrics:
        """Snapshot, remember as :attr:`latest`, and notify subscribers."""
        metrics = self.snapshot(slot, utilization, pending)
        self._latest = metrics
        for callback in self._subscribers:
            callback(metrics)
        return metrics
