"""Admission control for SOAP services on the virtual clock.

The controller stacks three gates in front of a service, checked in order
on every arrival:

1. a **concurrency bulkhead** — a hard cap on requests dispatched but not
   yet released;
2. a **weighted-fair queue over per-principal lanes** — the service's
   processing capacity is modelled as a stream of *charges* (one per
   admitted request, ``1/capacity`` virtual seconds each) ordered by
   start-time fair queuing, and a request whose computed queue wait
   exceeds ``max_wait`` is shed;
3. a **token bucket** — an explicit per-service rate cap, checked *after*
   the fair queue and defaulting to twice the modelled capacity.  Order
   matters: the bucket is lane-blind, so were it first, sustained
   overload would be shed in arrival order and the weights would never
   arbitrate.  Behind the fair queue it only binds when operators
   configure a rate below what the queue admits — a deliberate cap, not
   accidental unfairness.

A shed raises :class:`repro.faults.ServerBusyError` with a ``retryAfter``
detail in virtual seconds — how long until the gate that refused the
request would plausibly accept it — which the client retry loop honours
instead of blind exponential backoff.

The sim is single-threaded and synchronous, so queue wait is *virtual
bookkeeping*, never a clock advance: the controller tracks ``busy_until``
(when the modelled server frees up) plus the fair-queued charges not yet
started, and drains them lazily against the shared clock on every
arrival.  Crucially the model runs even with ``enabled=False`` — the
controller still computes each request's would-be wait (so deadline
shedding in the SOAP server sees honest overload numbers and goodput
collapses realistically); it merely never refuses anyone.

Shed and queue-wait events are recorded into a
:class:`~repro.resilience.events.ResilienceLog`; when that log is bridged
with :meth:`~repro.observability.runtime.Observability.observe_log`, the
events also land on the open span and in the metrics event counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import ServerBusyError
from repro.loadmgmt.bucket import TokenBucket
from repro.loadmgmt.fairqueue import LaneConfig, WeightedFairQueue
from repro.observability.metrics import Histogram
from repro.resilience import events as resilience_events
from repro.resilience.events import ResilienceLog
from repro.transport.clock import SimClock

#: the lane used when a request carries no principal header
ANONYMOUS_LANE = "anonymous"


@dataclass
class Ticket:
    """An admitted request's pass through the controller.

    ``queue_wait`` is the modelled virtual time the request spends queued
    before its service slot starts — the number the SOAP server compares
    against the caller's deadline, and the context a deadline shed report
    carries so clients can tell "server overloaded" from "deadline too
    tight".
    """

    principal: str
    method: str
    queue_wait: float
    admitted_at: float
    released: bool = False


@dataclass
class LaneStats:
    """Lifetime admission counters for one lane."""

    arrived: int = 0
    admitted: int = 0
    shed: int = 0
    wait_total: float = 0.0
    wait_max: float = 0.0


class AdmissionController:
    """The three-gate admission pipeline for one service.

    Args:
        clock: the deployment's shared virtual clock.
        capacity: modelled service rate, requests per virtual second.
        rate: token-bucket refill rate (defaults to ``2 * capacity`` so
            the bucket never binds unless configured tighter — the fair
            queue already limits sustained admission to ``capacity``).
        burst: token-bucket burst (defaults to ``10 * rate``).
        max_wait: longest modelled queue wait admitted, virtual seconds.
        max_concurrent: bulkhead size (requests dispatched, not released).
        lanes: per-principal :class:`LaneConfig` (weight + priority
            class); unknown principals get ``default_weight``, priority 0.
        enabled: with ``False``, every gate still accounts but none sheds.
        service: name used in events and monitoring rows.
        log: resilience log receiving shed / queue-wait events.
    """

    def __init__(
        self,
        clock: SimClock,
        capacity: float,
        *,
        rate: float | None = None,
        burst: float | None = None,
        max_wait: float = 5.0,
        max_concurrent: int = 64,
        lanes: dict[str, LaneConfig] | None = None,
        default_weight: float = 1.0,
        enabled: bool = True,
        service: str = "",
        log: ResilienceLog | None = None,
    ):
        if capacity <= 0:
            raise ValueError(f"service capacity must be positive: {capacity}")
        if max_wait <= 0:
            raise ValueError(f"max queue wait must be positive: {max_wait}")
        if max_concurrent < 1:
            raise ValueError(f"bulkhead must admit at least one: {max_concurrent}")
        self.clock = clock
        self.capacity = float(capacity)
        self.cost = 1.0 / float(capacity)
        self.max_wait = float(max_wait)
        self.max_concurrent = int(max_concurrent)
        self.enabled = enabled
        self.service = service
        self.log = log
        bucket_rate = float(rate if rate is not None else 2.0 * capacity)
        self.bucket = TokenBucket(
            clock,
            bucket_rate,
            float(burst) if burst is not None else max(10.0 * bucket_rate, 1.0),
        )
        self.queue = WeightedFairQueue(lanes, default_weight=default_weight)
        self.in_flight = 0
        self.arrived = 0
        self.admitted = 0
        self.shed = 0
        self.wait_histogram = Histogram()
        self.lane_stats: dict[str, LaneStats] = {}
        self._busy_until = 0.0

    # -- the capacity model ---------------------------------------------------

    def _drain(self, now: float) -> None:
        """Retire charges whose modelled service started before *now*.

        Each queued entry's ``item`` is its arrival time; it starts when
        the modelled server frees up and it has arrived, whichever is
        later.  Draining is lazy — the model only advances when observed.
        """
        while True:
            head = self.queue.peek()
            if head is None:
                return
            start = max(self._busy_until, head.item)
            if start >= now:
                return
            self.queue.dequeue()
            self._busy_until = start + self.cost

    def backlog_wait(self, now: float | None = None) -> float:
        """The modelled wait a request arriving *now* would see, seconds."""
        if now is None:
            now = self.clock.now
        self._drain(now)
        return max(self._busy_until - now, 0.0) + len(self.queue) * self.cost

    # -- admission ------------------------------------------------------------

    def admit(self, principal: str | None = None, *, method: str = "") -> Ticket:
        """Run the gates; returns a :class:`Ticket` or sheds."""
        now = self.clock.now
        lane = principal or ANONYMOUS_LANE
        stats = self.lane_stats.setdefault(lane, LaneStats())
        stats.arrived += 1
        self.arrived += 1
        self._drain(now)

        if self.in_flight >= self.max_concurrent and self.enabled:
            self._shed(lane, method, "bulkhead", self.cost)

        entry = self.queue.enqueue(lane, item=now)
        ahead = self.queue.position(entry)
        queue_wait = max(self._busy_until - now, 0.0) + ahead * self.cost
        if queue_wait > self.max_wait and self.enabled:
            self.queue.remove(entry)
            self._shed(lane, method, "queue", queue_wait - self.max_wait)
        if not self.bucket.try_acquire() and self.enabled:
            self.queue.remove(entry)
            self._shed(lane, method, "rate", self.bucket.time_until())

        stats.admitted += 1
        stats.wait_total += queue_wait
        if queue_wait > stats.wait_max:
            stats.wait_max = queue_wait
        self.admitted += 1
        self.in_flight += 1
        self.wait_histogram.record(queue_wait)
        if self.log is not None and queue_wait > 0.0:
            self.log.record(
                resilience_events.QUEUE_WAIT,
                f"request queued {queue_wait:.3f}s behind {ahead} charges",
                service=self.service,
                operation=method,
                detail={"principal": lane, "queueWait": f"{queue_wait:.6f}"},
            )
        return Ticket(
            principal=lane, method=method, queue_wait=queue_wait, admitted_at=now
        )

    def release(self, ticket: Ticket) -> None:
        """Return the ticket's bulkhead slot; idempotent per ticket."""
        if ticket.released:
            return
        ticket.released = True
        if self.in_flight > 0:
            self.in_flight -= 1

    def _shed(self, lane: str, method: str, reason: str, retry_after: float) -> None:
        retry_after = max(retry_after, self.cost)
        self.lane_stats[lane].shed += 1
        self.shed += 1
        if self.log is not None:
            self.log.record(
                resilience_events.BUSY,
                f"shed by {reason} gate; retry after {retry_after:.3f}s",
                service=self.service,
                operation=method,
                detail={
                    "principal": lane,
                    "reason": reason,
                    "retryAfter": f"{retry_after:.6f}",
                },
            )
        raise ServerBusyError(
            f"{self.service or 'service'} overloaded ({reason}); "
            f"retry in {retry_after:.3f}s",
            detail={
                "retryAfter": f"{retry_after:.6f}",
                "reason": reason,
                "principal": lane,
            },
        )

    # -- monitoring views -----------------------------------------------------

    def lane_rows(self) -> list[dict]:
        """Per-lane occupancy and outcome rows for monitoring/portlets."""
        depths = self.queue.depths()
        rows = []
        for lane in sorted(self.lane_stats):
            stats = self.lane_stats[lane]
            config = self.queue.lane(lane)
            rows.append({
                "service": self.service,
                "lane": lane,
                "weight": config.weight,
                "priority": config.priority,
                "arrived": stats.arrived,
                "admitted": stats.admitted,
                "shed": stats.shed,
                "queued": depths.get(lane, 0),
                "mean_wait": (
                    stats.wait_total / stats.admitted if stats.admitted else 0.0
                ),
                "max_wait": stats.wait_max,
            })
        return rows

    def summary(self) -> dict:
        """Controller-level totals for monitoring/benchmarks."""
        return {
            "service": self.service,
            "enabled": self.enabled,
            "capacity": self.capacity,
            "arrived": self.arrived,
            "admitted": self.admitted,
            "shed": self.shed,
            "in_flight": self.in_flight,
            "queued": len(self.queue),
            "wait_mean": self.wait_histogram.mean,
            "wait_p99": self.wait_histogram.percentile(0.99),
            "tokens_rejected": self.bucket.rejected,
        }


class LoadRegistry:
    """All admission controllers of one deployment, for monitoring.

    The monitoring service and :class:`~repro.loadmgmt.portlet.LoadPortlet`
    read lane occupancy through this registry rather than reaching into
    individual SOAP servers.
    """

    def __init__(self):
        self.controllers: dict[str, AdmissionController] = {}

    def register(self, controller: AdmissionController) -> AdmissionController:
        self.controllers[controller.service] = controller
        return controller

    def lane_rows(self) -> list[dict]:
        rows: list[dict] = []
        for service in sorted(self.controllers):
            rows.extend(self.controllers[service].lane_rows())
        return rows

    def summaries(self) -> list[dict]:
        return [
            self.controllers[service].summary()
            for service in sorted(self.controllers)
        ]
