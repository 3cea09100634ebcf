"""Distributed tracing + metrics for the portal's web-services stack.

See ``docs/OBSERVABILITY.md``.  The layer is opt-in: nothing is traced
until :meth:`Observability.install` hangs a bundle on the virtual
network, after which every SOAP client/server and GRAM hop instruments
itself at call time.  Trace context crosses every hop, SOAP and GRAM
alike, in one wire form: the ``Traceparent`` HTTP header.
"""

from repro.observability.collector import (
    TraceCollector,
    TraceCollectorService,
    created_collectors,
    deploy_trace_collector,
)
from repro.observability.context import (
    TRACEPARENT,
    IdGenerator,
    TraceContext,
    traceparent,
)
from repro.observability.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    QuantileSketch,
    RedSeries,
)
from repro.observability.runtime import Observability
from repro.observability.sampling import (
    KeepErrorsPolicy,
    KeepEventsPolicy,
    LatencyOutlierPolicy,
    ProbabilisticPolicy,
    SamplingPolicy,
    TailSampler,
    default_policies,
)
from repro.observability.slo import (
    SLO,
    BurnRatePair,
    SloEngine,
    default_pairs,
    default_slos,
)
from repro.observability.tracer import Span, SpanEvent, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "BurnRatePair",
    "Histogram",
    "IdGenerator",
    "KeepErrorsPolicy",
    "KeepEventsPolicy",
    "LatencyOutlierPolicy",
    "MetricsRegistry",
    "Observability",
    "ProbabilisticPolicy",
    "QuantileSketch",
    "RedSeries",
    "SLO",
    "SamplingPolicy",
    "SloEngine",
    "Span",
    "SpanEvent",
    "TRACEPARENT",
    "TailSampler",
    "TraceCollector",
    "TraceCollectorService",
    "TraceContext",
    "Tracer",
    "created_collectors",
    "default_pairs",
    "default_policies",
    "default_slos",
    "deploy_trace_collector",
    "traceparent",
]
