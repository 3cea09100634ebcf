"""RED metrics: Rate, Errors, Duration — per service, per method.

JClarens and Clarens (PAPERS.md) both report that per-method performance
monitoring of the service layer became essential once portals took real
traffic.  This module keeps the counters those papers describe: request
and error counts plus latency histograms with *fixed exponential buckets*,
so registries from different hosts (or different runs) merge exactly —
bucket boundaries never depend on the data.

Gauges carry last-written values for state that is a level, not a flow:
circuit-breaker state per host, scheduler queue depth per resource.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any

#: histogram bucket upper bounds, seconds: 1ms .. ~524s, doubling
BUCKET_BOUNDS: tuple[float, ...] = tuple(0.001 * 2**i for i in range(20))

#: numeric encoding of breaker states for the gauge
BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}


@dataclass
class Histogram:
    """A latency histogram over the fixed exponential bounds.

    ``counts`` has one slot per bound plus an overflow slot; identical
    bounds everywhere make :meth:`merge` a plain vector add.  Each sample
    lands in one slot, so the sample count is their sum, kept nowhere else.
    """

    counts: list[int] = field(default_factory=lambda: [0] * (len(BUCKET_BOUNDS) + 1))
    total: float = 0.0

    def record(self, value: float) -> None:
        self.total += value
        # first bound with value <= bound; past the last bound = overflow slot
        self.counts[bisect_left(BUCKET_BOUNDS, value)] += 1

    def merge(self, other: "Histogram") -> None:
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total

    @property
    def count(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the *q* quantile (0 < q <= 1)."""
        count = self.count
        if not count:
            return 0.0
        rank = q * count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                return BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else float("inf")
        return BUCKET_BOUNDS[-1]

    def count_at_most(self, threshold: float) -> int:
        """Samples recorded at or below *threshold* (bucket granularity).

        A sample is attributed to the first bound that fits it, so this is
        exact whenever *threshold* is one of :data:`BUCKET_BOUNDS` — the
        SLO engine's latency objectives snap thresholds to bounds for that
        reason.
        """
        return sum(self.counts[: bisect_right(BUCKET_BOUNDS, threshold)])

    def to_dict(self) -> dict[str, Any]:
        return {"counts": list(self.counts), "total": self.total, "count": self.count}


class QuantileSketch:
    """A streaming quantile estimator over *fixed* log-spaced buckets.

    Like :class:`Histogram`, the bucket geometry never depends on the data:
    bucket ``i`` covers ``(MIN * GAMMA**i, MIN * GAMMA**(i+1)]``, with
    ``GAMMA = 2**(1/8)`` (about 9% relative error per bucket).  Merging two
    sketches is a plain vector add, so merge is exactly associative and
    commutative — the property the tail sampler's per-operation p99
    tracking and the SLO window math both lean on.
    """

    __slots__ = ("counts", "count", "top")

    #: lower edge of bucket 0: 1µs — everything smaller lands in bucket 0
    MIN = 1e-6
    #: buckets per doubling (GAMMA = 2 ** (1 / STEPS_PER_DOUBLING))
    STEPS_PER_DOUBLING = 8
    #: 256 buckets cover 1µs .. ~4.3e3 s before the overflow slot
    BUCKETS = 256

    def __init__(self):
        self.counts: list[int] = [0] * (self.BUCKETS + 1)
        self.count = 0
        #: the highest non-empty bucket (0 while empty): quantiles of the
        #: slow tail are found walking down from here
        self.top = 0

    def record(self, value: float) -> None:
        self.count += 1
        if value <= self.MIN:
            self.counts[0] += 1
            return
        idx = int(math.log2(value / self.MIN) * self.STEPS_PER_DOUBLING) + 1
        if idx > self.BUCKETS:
            idx = self.BUCKETS
        self.counts[idx] += 1
        if idx > self.top:
            self.top = idx

    def merge(self, other: "QuantileSketch") -> None:
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.top = max(self.top, other.top)

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the *q* quantile (0 < q <= 1): the upper
        edge of the lowest bucket at which the running count reaches
        ``q * count``."""
        if not self.count:
            return 0.0
        rank = q * self.count
        counts = self.counts
        i = self.top
        seen = self.count  # samples in buckets 0..i
        # walk down while the buckets below i still hold the rank
        while True:
            below = seen - counts[i]
            if below < rank or not below:
                return self.MIN * 2 ** (i / self.STEPS_PER_DOUBLING)
            seen = below
            i -= 1

    def to_dict(self) -> dict[str, Any]:
        return {"count": self.count, "counts": list(self.counts)}


@dataclass
class RedSeries:
    """One (service, method, side) row of RED state."""

    errors: int = 0
    latency: Histogram = field(default_factory=Histogram)

    @property
    def requests(self) -> int:
        """Every request records one latency sample."""
        return self.latency.count

    def record(self, duration: float, error: bool) -> None:
        if error:
            self.errors += 1
        self.latency.record(duration)

    def merge(self, other: "RedSeries") -> None:
        self.errors += other.errors
        self.latency.merge(other.latency)


class MetricsRegistry:
    """All RED series, gauges, and event counters for one deployment."""

    def __init__(self):
        #: (service, method, side) -> RedSeries; side is "client" or "server"
        self.red: dict[tuple[str, str, str], RedSeries] = {}
        #: (name, label) -> last value
        self.gauges: dict[tuple[str, str], float] = {}
        #: event code -> count (resilience/durability stream totals)
        self.events: dict[str, int] = {}

    # -- recording ------------------------------------------------------------------

    def series(self, service: str, method: str, side: str) -> RedSeries:
        """The (create-on-first-use) series for one call site.

        Hot callers hold the returned series and record on it directly,
        skipping the key-tuple build and dict probe per call.
        """
        key = (service, method, side)
        series = self.red.get(key)
        if series is None:
            series = self.red[key] = RedSeries()
        return series

    def record_call(
        self, service: str, method: str, side: str, duration: float, error: bool
    ) -> None:
        self.series(service, method, side).record(duration, error)

    def set_gauge(self, name: str, label: str, value: float) -> None:
        self.gauges[(name, label)] = float(value)

    def count_event(self, code: str) -> None:
        self.events[code] = self.events.get(code, 0) + 1

    def merge(self, other: "MetricsRegistry") -> None:
        for key, series in other.red.items():
            mine = self.red.get(key)
            if mine is None:
                mine = self.red[key] = RedSeries()
            mine.merge(series)
        self.gauges.update(other.gauges)
        for code, n in other.events.items():
            self.events[code] = self.events.get(code, 0) + n

    # -- views ----------------------------------------------------------------------

    def summary(self) -> dict[str, list[dict[str, Any]]]:
        """The wire-friendly summary the monitoring service returns."""
        red_rows = [
            {
                "service": service,
                "method": method,
                "side": side,
                "requests": series.requests,
                "errors": series.errors,
                "mean_ms": round(series.latency.mean * 1000, 3),
                "p50_ms": round(series.latency.percentile(0.50) * 1000, 3),
                "p95_ms": round(series.latency.percentile(0.95) * 1000, 3),
            }
            for (service, method, side), series in sorted(self.red.items())
        ]
        gauge_rows = [
            {"gauge": name, "label": label, "value": self.gauges[(name, label)]}
            for name, label in sorted(self.gauges)
        ]
        event_rows = [
            {"code": code, "count": self.events[code]} for code in sorted(self.events)
        ]
        return {"red": red_rows, "gauges": gauge_rows, "events": event_rows}

    def slowest(self, limit: int = 10) -> list[dict[str, Any]]:
        """Server-side operations ranked by mean latency (ties by name).

        Iteration is over *sorted* operation keys and ranking uses the
        unrounded mean, so the order is a pure function of the recorded
        data — never of dict insertion order, and never of two distinct
        means rounding to the same displayed value.
        """
        ranked = sorted(
            (
                (key, series)
                for key, series in sorted(self.red.items())
                if key[2] == "server"
            ),
            key=lambda item: (-item[1].latency.mean, item[0][0], item[0][1]),
        )
        rows = [
            {
                "service": service,
                "method": method,
                "side": side,
                "requests": series.requests,
                "errors": series.errors,
                "mean_ms": round(series.latency.mean * 1000, 3),
                "p50_ms": round(series.latency.percentile(0.50) * 1000, 3),
                "p95_ms": round(series.latency.percentile(0.95) * 1000, 3),
            }
            for (service, method, side), series in ranked
        ]
        return rows[: int(limit)] if limit and int(limit) > 0 else rows
