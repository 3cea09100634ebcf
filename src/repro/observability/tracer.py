"""Span recording on the virtual clock.

A *span* is one timed operation — a client call, a server dispatch, a
gatekeeper job submission — identified within its trace by a span id and
linked to its parent.  The :class:`Tracer` keeps an ambient stack of open
spans (the simulation is single-threaded, mirroring the idempotency
module's ``current_key`` slot) so nested work parents correctly without
threading a context object through every call signature.

Spans carry *events*: point-in-time annotations such as a retry, a breaker
trip, a failover, or a journal append, bridged in from the resilience log
and the durability layer so one trace tells the full retry-and-recover
story.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.faults import PortalError
from repro.observability.context import IdGenerator, TraceContext
from repro.transport.clock import SimClock

#: span kinds, in the OpenTelemetry sense
CLIENT = "client"
SERVER = "server"
INTERNAL = "internal"


def _discard(span: "Span") -> None:
    """The finish hook of a tracer with neither sampler nor collector."""


@dataclass
class SpanEvent:
    """A point-in-time annotation on a span."""

    t: float
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"t": self.t, "name": self.name, "attributes": dict(self.attributes)}


class Span:
    """One timed operation in a trace tree.

    A plain ``__slots__`` class on the hot path: every SOAP call opens
    three of these, so construction cost is product cost.  The attribute
    and event stores are created lazily — most spans carry neither, and a
    dict plus a list per span is measurable at wire rates.

    Ids are lazy too.  A span the :class:`Tracer` opens holds its id as an
    allocation count, with the tracer's id generator beside it, and its
    parent as the parent span or context itself; :attr:`span_id` and
    :attr:`parent_id` hash and format them on first read (see
    :class:`~repro.observability.context.IdGenerator`), which for most
    spans of a tail-sampled run is never.
    """

    __slots__ = (
        "trace_id", "_span_id", "_parent", "name", "kind", "service",
        "host", "start", "end", "error", "_attributes", "_events", "_ids",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str,
        name: str,
        kind: str,
        service: str,
        host: str,
        start: float,
        end: float = 0.0,
        error: str = "",
        attributes: dict[str, Any] | None = None,
        events: list[SpanEvent] | None = None,
    ):
        self.trace_id = trace_id
        #: the span id, or its allocation count (then ``_ids`` is set)
        self._span_id = span_id
        #: the parent's id, or the parent span or context to read it from;
        #: falsy ("") for a root
        self._parent = parent_id
        self.name = name
        self.kind = kind
        self.service = service
        self.host = host
        self.start = start
        self.end = end
        self.error = error
        self._attributes = attributes
        self._events = events
        self._ids = None

    @property
    def span_id(self) -> str:
        span_id = self._span_id
        if span_id.__class__ is int:  # an allocation count (see Tracer)
            span_id = self._span_id = self._ids.span_hex(span_id)
        return span_id

    @property
    def parent_id(self) -> str:
        parent = self._parent
        return parent if parent.__class__ is str else parent.span_id

    @property
    def attributes(self) -> dict[str, Any]:
        if self._attributes is None:
            self._attributes = {}
        return self._attributes

    @property
    def events(self) -> list[SpanEvent]:
        if self._events is None:
            self._events = []
        return self._events

    def add_event(self, t: float, name: str, /, **attributes: Any) -> None:
        # positional-only: bridged attribute dicts may themselves contain
        # "t" or "name" keys (the chaos log stamps a "t" detail)
        self.events.append(SpanEvent(t, name, attributes))

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "service": self.service,
            "host": self.host,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            "attributes": dict(self._attributes) if self._attributes else {},
            "events": [e.to_dict() for e in self._events] if self._events else [],
        }


class Tracer:
    """Mints spans on the sim clock and exports finished ones.

    ``collector`` is anything with an ``export(span)`` method — in
    practice the :class:`repro.observability.collector.TraceCollector`,
    which takes finished ``Span`` objects and builds their dict form when
    read.

    With a ``sampler`` attached (:class:`repro.observability.sampling
    .TailSampler`), finished spans are *offered* instead of exported:
    the sampler buffers the raw ``Span`` objects per trace and exports
    only the traces its policy chain keeps — the deferred half of the
    cheap span hot path.
    """

    def __init__(
        self, clock: SimClock, ids: IdGenerator, collector=None, *, sampler=None
    ):
        self.clock = clock
        self.ids = ids
        self.collector = collector
        self.sampler = sampler
        self._stack: list[Span] = []
        # bound fast paths: three spans per SOAP call makes even the
        # attribute-chain lookups (`self.ids.allocate`) per-call cost
        self._trace_id = ids.trace_id
        self._allocate = ids.allocate
        #: where a finished span goes: the sampler, else the collector
        self._finish = (
            sampler.offer if sampler is not None
            else collector.export if collector is not None
            else _discard
        )

    # -- ambient span ---------------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- span lifecycle -------------------------------------------------------------

    def start(
        self,
        name: str,
        kind: str = INTERNAL,
        service: str = "",
        host: str = "",
        parent: TraceContext | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span.  Parentage: explicit *parent* context beats the
        ambient current span; with neither, a fresh trace begins."""
        stack = self._stack
        if parent is None:
            if stack:
                parent = stack[-1]
                trace_id = parent.trace_id
            else:
                trace_id = self._trace_id()
                parent = ""
        else:
            trace_id = parent.trace_id
            if not parent.span_id:
                parent = ""  # a context naming no parent span: a root
        # the span id is an allocation count and the parent is itself: both
        # are hashed and formatted only if read (see Span)
        span = Span(
            trace_id, self._allocate(), parent, name, kind, service, host,
            self.clock.now, 0.0, "", dict(attributes) if attributes else None,
        )
        span._ids = self.ids
        stack.append(span)
        return span

    def end(self, span: Span, *, error: str = "") -> Span:
        """Close a span and hand it off — to the tail sampler when one is
        attached, else straight to the collector, which materializes the
        dict form when it is first read.  A finished span does not change
        afterwards."""
        stack = self._stack
        # spans close innermost-first; a crash can leave descendants open
        if stack and stack.pop() is not span:
            self._pop(span)
        span.end = self.clock.now
        span.error = error
        self._finish(span)
        return span

    def abandon(self, span: Span) -> None:
        """Drop a span without exporting — the recording process crashed
        mid-operation (``ServiceCrash``), so no record survives."""
        self._pop(span)

    def _pop(self, span: Span) -> None:
        # spans close innermost-first in a single-threaded simulation, but a
        # crash can leave descendants open; unwind them too
        while self._stack:
            top = self._stack.pop()
            if top is span:
                return

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = INTERNAL,
        service: str = "",
        host: str = "",
        parent: TraceContext | None = None,
        attributes: dict[str, Any] | None = None,
    ) -> Iterator[Span]:
        """Context-managed span: ends with the mapped error code on
        failure.

        Caller-side semantics: a :class:`ServiceCrash` bubbling up from a
        downstream host is an *observed* error here (the recording process
        is alive), so the span is exported like any other failure.  (Server
        dispatch exports its crash spans too — the collector is an
        omniscient in-sim observer, and dropping the span would orphan
        children exported before the crash.)
        """
        span = self.start(name, kind, service, host, parent, attributes)
        try:
            yield span
        except PortalError as exc:
            self.end(span, error=exc.code)
            raise
        except Exception as exc:
            self.end(span, error=type(exc).__name__)
            raise
        else:
            self.end(span)

    # -- event bridging -------------------------------------------------------------

    def annotate(self, name: str, /, **attributes: Any) -> bool:
        """Attach an event to the current span; returns False if no span is
        open (the event is simply dropped — tracing never fails the caller)."""
        span = self.current()
        if span is None:
            return False
        span.add_event(self.clock.now, name, **attributes)
        return True
