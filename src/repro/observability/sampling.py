"""Tail-based trace sampling: buffer cheaply, decide at trace completion.

Always-on full tracing is the product tax at portal scale — but *head*
sampling (deciding at trace start) throws away exactly the traces worth
keeping, because whether a request erred, blew its deadline, or tripped a
breaker is only known at the end.  The :class:`TailSampler` therefore
buffers every trace's raw :class:`~repro.observability.tracer.Span`
objects (no dict materialization, no export) until the root span
completes, then runs a deterministic policy chain:

1. :class:`KeepErrorsPolicy` — any failed span keeps the whole trace;
2. :class:`KeepEventsPolicy` — deadline sheds, breaker trips, failovers,
   give-ups keep the trace even when the call eventually succeeded;
3. :class:`LatencyOutlierPolicy` — per-operation streaming quantile
   sketches keep the slow tail (p99 by default);
4. :class:`ProbabilisticPolicy` — a seeded hash of the trace id keeps a
   deterministic fraction of the boring rest.

Everything is seeded — two same-seed runs keep byte-identical trace sets
(the determinism the ``repro.analysis`` REP103 rule enforces).  RED
metrics are recorded *before* the sampler sees anything, so rates, error
counts, and latency histograms stay unsampled and exact; the sampler's
:meth:`~TailSampler.accounting` reconciles kept/dropped totals so nobody
mistakes the collector's contents for the full population.

Nothing about sampling crosses the wire: every hop of a simulated
deployment shares the network's one observability bundle, so the hops
that record a trace's spans also share the sampler that decides it.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any, Iterable

from repro.observability.metrics import QuantileSketch
from repro.observability.tracer import Span
from repro.resilience import events as resilience_events

_M64 = 0xFFFFFFFFFFFFFFFF

#: C-level reads for the notable-span scan (any span failed or carries
#: events): no Python frame per span
_ERROR = attrgetter("error")
_EVENTS = attrgetter("_events")


def always_keep_events() -> frozenset[str]:
    """Event codes that always keep a trace, success or not."""
    return frozenset({
        resilience_events.BREAKER,
        resilience_events.DEADLINE,
        resilience_events.FAILOVER,
        resilience_events.GIVE_UP,
        resilience_events.SHED,
    })


class TraceBuffer:
    """One in-flight trace: raw spans in finish order, root when known."""

    __slots__ = ("trace_id", "spans", "root")

    def __init__(
        self,
        trace_id: str,
        spans: list[Span] | None = None,
        root: Span | None = None,
    ):
        self.trace_id = trace_id
        self.spans: list[Span] = [] if spans is None else spans
        self.root = root


class SamplingPolicy:
    """One link of the retention chain.

    ``decide`` returns ``True`` to keep the trace (the chain stops) or
    ``None`` for no opinion (the chain continues); a trace no policy
    claims is dropped.  Policies must be deterministic: any randomness
    must come from an explicit seed (REP103).
    """

    name = "policy"

    #: True for a policy that can keep only a trace in which some span
    #: failed or carries events; the sampler does not ask it about the rest
    #: (most traces), which spares a call and a span scan per trace
    notable_only = False

    def decide(self, trace: TraceBuffer) -> bool | None:
        raise NotImplementedError


class KeepErrorsPolicy(SamplingPolicy):
    """Any span error keeps the whole trace — failures are never sampled
    away, so every alert exemplar and postmortem trace link resolves."""

    name = "errors"
    notable_only = True

    def decide(self, trace: TraceBuffer) -> bool | None:
        for span in trace.spans:
            if span.error:
                return True
        return None


class KeepEventsPolicy(SamplingPolicy):
    """Resilience events keep the trace even when the call succeeded.

    A request that tripped a breaker, shed under deadline pressure, failed
    over, or exhausted retries tells the capacity-planning story precisely
    *because* it recovered — dropping it would hide the near-miss.
    """

    name = "events"
    notable_only = True

    def __init__(self, codes: frozenset[str] | None = None):
        self.codes = codes if codes is not None else always_keep_events()

    def decide(self, trace: TraceBuffer) -> bool | None:
        for span in trace.spans:
            if span._events:
                for event in span._events:
                    if event.name in self.codes:
                        return True
        return None


class LatencyOutlierPolicy(SamplingPolicy):
    """Keep traces whose root latency sits in the slow tail of its
    operation.

    One streaming :class:`~repro.observability.metrics.QuantileSketch`
    per (service, root-operation) observes *every* root duration — the
    baseline is unsampled — and a trace at or above the sketch's current
    ``quantile`` estimate is kept.  The first ``min_baseline`` roots of an
    operation only feed the sketch (an empty baseline makes everything an
    outlier).
    """

    name = "latency-outlier"

    #: recompute the cached quantile threshold every this many roots — a
    #: full sketch scan per trace would dominate the decision cost, and
    #: the refresh schedule depends only on counts, so it is deterministic
    REFRESH_EVERY = 16

    def __init__(self, quantile: float = 0.99, min_baseline: int = 32):
        self.quantile = quantile
        self.min_baseline = min_baseline
        #: per (service, root operation): [sketch, count at the next
        #: threshold refresh, cached threshold] — one lookup per trace; the
        #: threshold is infinite until the baseline is complete
        self._tails: dict[tuple[str, str], list] = {}

    def decide(self, trace: TraceBuffer) -> bool | None:
        root = trace.root
        if root is None:
            return None
        key = (root.service or root.host, root.name)
        tail = self._tails.get(key)
        if tail is None:
            tail = self._tails[key] = [QuantileSketch(), self.min_baseline, math.inf]
        sketch = tail[0]
        count = sketch.count
        if count >= tail[1]:
            tail[1] = count + self.REFRESH_EVERY
            tail[2] = sketch.quantile(self.quantile)
        duration = root.end - root.start
        sketch.record(duration)
        return True if duration >= tail[2] else None


class ProbabilisticPolicy(SamplingPolicy):
    """Keep a seeded, deterministic fraction of the remaining traces.

    The coin is a splitmix64-style hash of (trace id, seed) — no
    ``random`` module, no per-process state — so the same seed keeps the
    same trace set on every run, and the decision is reproducible from
    the trace id alone.
    """

    name = "probabilistic"

    def __init__(self, rate: float = 0.05, seed: int = 0):
        self.rate = rate
        self.seed = seed & _M64
        #: a trace is kept when its 64-bit hash is below this: when the
        #: hash's top 53 bits, read as a fraction of one, are below *rate*
        self._below = (
            0 if not rate > 0.0
            else 1 << 64 if rate >= 1.0
            else math.ceil(rate * 2.0**53) << 11
        )

    def decide(self, trace: TraceBuffer) -> bool | None:
        trace_id = trace.trace_id
        try:
            key = int(trace_id[:16], 16)
        except ValueError:
            key = sum(ord(ch) for ch in trace_id)
        v = (key ^ self.seed) & _M64
        v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _M64
        return True if (v ^ (v >> 31)) < self._below else None


def default_policies(
    *,
    seed: int = 0,
    rate: float = 0.05,
    outlier_quantile: float = 0.99,
    min_outlier_baseline: int = 32,
) -> list[SamplingPolicy]:
    """The standard chain: errors, resilience events, outliers, coin."""
    return [
        KeepErrorsPolicy(),
        KeepEventsPolicy(),
        LatencyOutlierPolicy(outlier_quantile, min_outlier_baseline),
        ProbabilisticPolicy(rate=rate, seed=seed),
    ]


class TailSampler:
    """Buffers whole traces and applies the policy chain at completion.

    Sits between :class:`~repro.observability.tracer.Tracer` and
    :class:`~repro.observability.collector.TraceCollector`: finished spans
    are *offered* here, and only kept traces are exported (the collector
    builds their dict form when read) — dropped traces never pay the dict
    cost at all.  Spans of one trace export contiguously in finish order,
    so same-seed runs stay byte-identical.
    """

    mode = "tail"

    def __init__(
        self,
        *,
        seed: int = 0,
        rate: float = 0.05,
        outlier_quantile: float = 0.99,
        min_outlier_baseline: int = 32,
        max_buffered_traces: int = 512,
        policies: Iterable[SamplingPolicy] | None = None,
    ):
        self.policies = (
            list(policies)
            if policies is not None
            else default_policies(
                seed=seed,
                rate=rate,
                outlier_quantile=outlier_quantile,
                min_outlier_baseline=min_outlier_baseline,
            )
        )
        #: the chain for a trace with no failed span and no span events
        self._quiet_policies = [p for p in self.policies if not p.notable_only]
        self.max_buffered_traces = max_buffered_traces
        #: the export target; bound by the runtime (anything with
        #: ``export(span)``)
        self.collector = None
        self._buffers: dict[str, TraceBuffer] = {}
        self.kept_traces = 0
        self.dropped_traces = 0
        self.kept_spans = 0
        self.dropped_spans = 0
        self.overflow_decisions = 0
        self.kept_by_policy: dict[str, int] = {}

    def bind(self, collector) -> None:
        self.collector = collector

    # -- the hot path ---------------------------------------------------------------

    def offer(self, span: Span) -> None:
        """Buffer one finished span; a completing root decides its trace."""
        if span._parent:  # not a root; read without resolving the id
            buf = self._buffers.get(span.trace_id)
            if buf is not None:
                buf.spans.append(span)
                return
            if len(self._buffers) >= self.max_buffered_traces:
                self._decide_oldest()
            self._buffers[span.trace_id] = TraceBuffer(span.trace_id, [span])
            return
        # the root finishes last: its trace is complete
        buf = self._buffers.pop(span.trace_id, None)
        if buf is None:
            if len(self._buffers) >= self.max_buffered_traces:
                self._decide_oldest()
            self._decide(TraceBuffer(span.trace_id, [span], span))
        else:
            buf.spans.append(span)
            buf.root = span
            self._decide(buf)

    # -- decisions ------------------------------------------------------------------

    def _decide_oldest(self) -> None:
        """Buffer overflow: decide the oldest incomplete trace early (its
        root, e.g. abandoned by a crash, may never arrive)."""
        trace_id = next(iter(self._buffers))
        buf = self._buffers.pop(trace_id)
        if buf.root is None and buf.spans:
            buf.root = buf.spans[0]
        self.overflow_decisions += 1
        self._decide(buf)

    def _decide(self, buf: TraceBuffer) -> None:
        spans = buf.spans
        if any(map(_ERROR, spans)) or any(map(_EVENTS, spans)):
            policies = self.policies
        else:
            policies = self._quiet_policies
        for policy in policies:
            if policy.decide(buf):
                self._keep(buf, policy.name)
                return
        self.dropped_traces += 1
        self.dropped_spans += len(spans)

    def _keep(self, buf: TraceBuffer, policy_name: str) -> None:
        self.kept_traces += 1
        self.kept_spans += len(buf.spans)
        self.kept_by_policy[policy_name] = (
            self.kept_by_policy.get(policy_name, 0) + 1
        )
        if self.collector is not None:
            for span in buf.spans:
                self.collector.export(span)

    def flush(self) -> None:
        """Decide every still-buffered trace (end of run / uninstall).

        Incomplete traces — roots abandoned by crashes — go through the
        same chain, with the first buffered span standing in as root.
        """
        for trace_id in list(self._buffers):
            buf = self._buffers.pop(trace_id)
            if buf.root is None and buf.spans:
                buf.root = buf.spans[0]
            self._decide(buf)

    # -- accounting -----------------------------------------------------------------

    @property
    def buffered_traces(self) -> int:
        return len(self._buffers)

    def accounting(self) -> dict[str, Any]:
        """The sampled/dropped ledger: exact totals, per-policy keeps.

        RED metrics never pass through the sampler, so this is the one
        place the "collector holds N spans" number is reconciled against
        the true population.
        """
        return {
            "mode": self.mode,
            "kept_traces": self.kept_traces,
            "dropped_traces": self.dropped_traces,
            "kept_spans": self.kept_spans,
            "dropped_spans": self.dropped_spans,
            "buffered_traces": self.buffered_traces,
            "overflow_decisions": self.overflow_decisions,
            "kept_by_policy": {
                name: self.kept_by_policy[name]
                for name in sorted(self.kept_by_policy)
            },
        }
