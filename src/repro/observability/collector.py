"""Trace collection: in-memory store, SOAP face, and export.

Finished spans are exported to a :class:`TraceCollector`, which builds
their dict form when a view first reads them.  In a real deployment each
host would batch spans to a collector service over the network; here
every tracer shares one in-process collector, and the *service* face
(:class:`TraceCollectorService`) exposes the same store over SOAP so
portlets and remote tools read traces the same way they read job status —
through a WSDL-described web service, per the paper's "everything is a
service" architecture.

``created_collectors()`` mirrors ``repro.durability.journal
.created_journals()``: the CI trace job uses it to export every trace the
test suite produced for offline re-verification by
``python -m repro.observability.report --check``.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

from repro.transport.network import VirtualNetwork

TRACE_COLLECTOR_NAMESPACE = "urn:gce:trace-collector"

#: every collector constructed this process, for the CI export hook
_CREATED: list["TraceCollector"] = []


def created_collectors() -> list["TraceCollector"]:
    """All collectors constructed so far (test/CI export hook)."""
    return list(_CREATED)


def _trace_id(span: Any) -> str:
    """The trace of a stored entry: a span dict, or an unread ``Span``."""
    return span["trace_id"] if span.__class__ is dict else span.trace_id


class TraceCollector:
    """An append-only store of finished spans, grouped into traces.

    Spans arrive in the order tracers finish them — deterministic under the
    sim clock — and every view iterates in that insertion order, so two
    same-seed runs export byte-identical JSON.

    ``capacity`` (spans; 0 = unbounded, the seed behavior) turns the store
    into a ring: when an export pushes the span count past capacity, the
    *oldest whole traces* are evicted — never individual spans, which
    would leave orphaned subtrees — until the store fits again.  Long
    soaks and 200-seed simtest sweeps stay memory-bounded; the eviction
    counters feed a gauge so a dashboard can tell "quiet system" from
    "ring ate the history".
    """

    def __init__(self, capacity: int = 0):
        self.capacity = int(capacity)
        #: span dicts, or finished :class:`~repro.observability.tracer.Span`
        #: objects not yet read (entries from ``_dicts_upto`` on)
        self._spans: list[Any] = []
        self._dicts_upto = 0
        self.trace_evictions = 0
        self.spans_evicted = 0
        #: called with this collector after each eviction pass (the
        #: runtime wires eviction gauges through it)
        self.on_evict = None
        _CREATED.append(self)

    def export(self, span: Any) -> None:
        """Store one finished span: a span dict, or a finished ``Span``,
        whose dict form is built when the store is first read — a fully
        traced run exports every span, and most are never read."""
        self._spans.append(span)
        if self.capacity and len(self._spans) > self.capacity:
            self._evict(_trace_id(span))

    def _dicts(self) -> list[dict[str, Any]]:
        """The store, every entry in its dict form."""
        spans = self._spans
        for i in range(self._dicts_upto, len(spans)):
            if spans[i].__class__ is not dict:
                spans[i] = spans[i].to_dict()
        self._dicts_upto = len(spans)
        return spans

    def _evict(self, current_trace: str) -> None:
        """Drop the oldest whole traces until the store fits, in one
        rebuild of the store, leaving unread spans unread."""
        spans, upto = self._spans, self._dicts_upto
        excess = len(spans) - self.capacity
        victims: set[str] = set()
        # traces in first-seen order, oldest first, with their span counts
        for trace_id, count in Counter(map(_trace_id, spans)).items():
            if excess <= 0 or trace_id == current_trace:
                # never evict the trace still being exported — its later
                # spans would arrive orphaned; tolerate transient overflow
                break
            victims.add(trace_id)
            excess -= count
            self.spans_evicted += count
        if not victims:
            return
        dicts = [s for s in spans[:upto] if s["trace_id"] not in victims]
        self._spans = dicts + [
            s for s in spans[upto:] if _trace_id(s) not in victims
        ]
        self._dicts_upto = len(dicts)
        self.trace_evictions += len(victims)
        if self.on_evict is not None:
            self.on_evict(self)

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, trace_id: str = "") -> list[dict[str, Any]]:
        """All spans, or those of one trace, in finish order."""
        if not trace_id:
            return list(self._dicts())
        return [s for s in self._dicts() if s["trace_id"] == trace_id]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in first-seen order."""
        seen: dict[str, None] = {}
        for span in self._dicts():
            seen.setdefault(span["trace_id"], None)
        return list(seen)

    def traces(self) -> list[dict[str, Any]]:
        """One summary row per trace: span count, root name, wall time."""
        rows = []
        for trace_id in self.trace_ids():
            spans = self.spans(trace_id)
            roots = [s for s in spans if not s["parent_id"]]
            root = roots[0] if roots else spans[0]
            rows.append({
                "trace_id": trace_id,
                "root": root["name"],
                "service": root["service"],
                "spans": len(spans),
                "errors": sum(1 for s in spans if s["error"]),
                "start": min(s["start"] for s in spans),
                "duration": max(s["end"] for s in spans)
                - min(s["start"] for s in spans),
            })
        return rows

    def tree(self, trace_id: str) -> list[dict[str, Any]]:
        """The trace's spans depth-annotated in parent-before-child order.

        Children sort by start time (ties by finish order); orphaned spans
        (parent never exported, e.g. a crashed server) root at depth 0.
        """
        # imported here, not at module level: the package imports this
        # module, and ``python -m repro.observability.report`` would then
        # find the report module already loaded under its own name
        from repro.observability.report import tree_rows

        rows = tree_rows(self.spans(trace_id))
        for row in rows:
            del row["_order"]
        return rows

    def to_json(self) -> str:
        """Deterministic JSON-lines export: one span per line, sorted keys."""
        return "\n".join(
            json.dumps(span, sort_keys=True) for span in self._dicts()
        )


class TraceCollectorService:
    """The SOAP face over a collector (read plus remote span reporting)."""

    def __init__(self, collector: TraceCollector):
        self.collector = collector

    def report(self, span: dict[str, Any]) -> int:
        """Accept one finished span from a remote tracer."""
        self.collector.export(span)
        return len(self.collector)

    def traces(self) -> list[dict[str, Any]]:
        """Summary rows, one per trace."""
        return self.collector.traces()

    def trace_tree(self, trace_id: str) -> list[dict[str, Any]]:
        """Depth-annotated spans of one trace."""
        return self.collector.tree(trace_id)

    def span_count(self) -> int:
        """Total spans collected."""
        return len(self.collector)


def deploy_trace_collector(
    network: VirtualNetwork,
    collector: TraceCollector,
    host: str = "traces.gridportal.org",
) -> tuple[TraceCollectorService, str]:
    """Expose *collector* over SOAP; returns (impl, endpoint URL).

    The service itself is never traced — the observability plane must not
    observe itself into an infinite regress.
    """
    # imported here, not at module top: the SOAP layer imports this
    # package's context/sampling modules for its hot path, so the
    # observability package must not import repro.soap at import time
    from repro.soap.server import SoapService
    from repro.transport.server import HttpServer

    impl = TraceCollectorService(collector)
    server = HttpServer(host, network)
    soap = SoapService("TraceCollector", TRACE_COLLECTOR_NAMESPACE)
    soap.traced = False
    soap.expose(impl.report)
    soap.expose(impl.traces)
    soap.expose(impl.trace_tree)
    soap.expose(impl.span_count)
    return impl, soap.mount(server, "/traces")
