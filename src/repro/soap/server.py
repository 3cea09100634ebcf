"""SOAP service dispatch: a method registry mounted as an HTTP endpoint.

A :class:`SoapService` is the paper's "SOAP Service Provider" (SSP) for one
service: it owns a namespace, a set of exposed methods, and optional request
interceptors (the security layer in §4 registers one to demand verified SAML
assertions before any method runs).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.durability.idempotency import (
    IdempotencyIndex,
    key_from_headers,
    set_current_key,
)
from repro.faults import (
    DeadlineExceededError,
    InvalidRequestError,
    PortalError,
    ServiceUnavailableError,
)
from repro.loadmgmt.headers import principal_from_headers
from repro.observability.context import TRACEPARENT, TraceContext
from repro.resilience import events as resilience_events
from repro.resilience.policy import (
    Deadline,
    check_hop_budget,
    pop_inbound_deadline,
    push_inbound_deadline,
)
from repro.soap.encoding import decode_value
from repro.soap.message import (
    SoapEnvelope,
    SoapFault,
    response_envelope,
)
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.network import ServiceCrash, TransportError
from repro.transport.server import HttpServer

# An interceptor inspects (method name, params, envelope) before dispatch and
# raises a PortalError to reject the call.
Interceptor = Callable[[str, list[Any], SoapEnvelope], None]


@dataclass
class ExposedMethod:
    """Metadata for one exposed operation (drives WSDL generation)."""

    name: str
    func: Callable[..., Any]
    doc: str = ""
    param_names: list[str] = field(default_factory=list)


class SoapService:
    """A SOAP server for one service namespace.

    Methods are exposed explicitly (``expose``) or in bulk from an object
    (``expose_object``), mirroring how the paper's teams wrapped existing
    implementations ("the SOAP server methods wrapped the existing WebFlow
    methods").
    """

    def __init__(self, name: str, namespace: str):
        self.name = name
        self.namespace = namespace
        self.methods: dict[str, ExposedMethod] = {}
        self.interceptors: list[Interceptor] = []
        self.calls_served = 0
        self.faults_returned = 0
        #: the host clock (set by :meth:`mount`); enables deadline shedding
        self.clock = None
        self.requests_shed = 0
        #: journal-backed response cache keyed by the client's idempotency
        #: header (see :meth:`enable_replay`); ``None`` = caching off
        self.replay_cache: IdempotencyIndex | None = None
        self.replays_served = 0
        #: the serving host name and network (set by :meth:`mount`); the
        #: network carries the ambient observability bundle, if installed
        self.host = ""
        self.network = None
        #: observability plane services (trace collector, monitoring) set
        #: this False so dashboards do not trace themselves
        self.traced = True
        #: admission controller run before dispatch (see
        #: :meth:`enable_admission`); ``None`` = accept everything
        self.admission = None
        #: resilience log receiving shed events; set alongside admission
        self.resilience_log = None
        # RED series per method, rebuilt when the registry changes (the
        # observability bundle was reinstalled)
        self._red_registry = None
        self._red_series: dict[str, Any] = {}

    # -- registration ----------------------------------------------------------

    def expose(
        self, func: Callable[..., Any], name: str | None = None
    ) -> "SoapService":
        method_name = name or func.__name__
        try:
            params = [
                p.name
                for p in inspect.signature(func).parameters.values()
                if p.name != "self"
            ]
        except (TypeError, ValueError):  # builtins etc.
            params = []
        self.methods[method_name] = ExposedMethod(
            name=method_name,
            func=func,
            doc=inspect.getdoc(func) or "",
            param_names=params,
        )
        return self

    def expose_object(self, obj: Any, only: list[str] | None = None) -> "SoapService":
        """Expose every public method of *obj* (or the listed subset)."""
        for attr in dir(obj):
            if attr.startswith("_"):
                continue
            if only is not None and attr not in only:
                continue
            func = getattr(obj, attr)
            if callable(func):
                self.expose(func, name=attr)
        return self

    def add_interceptor(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)

    def enable_replay(self, journal) -> "SoapService":
        """Cache successful responses durably by idempotency key.

        A request carrying a key the journal has already seen gets the
        recorded response envelope back without re-running the method —
        including after a crash-restart, since a fresh service instance
        attached to the same journal replays the cache.
        """
        self.replay_cache = IdempotencyIndex(journal)
        return self

    def enable_admission(self, controller, log=None) -> "SoapService":
        """Run *controller*'s gates before every dispatch.

        A refused request returns a retryable ``Portal.ServerBusy`` fault
        carrying the controller's ``retryAfter`` hint; an admitted
        request's modelled queue wait feeds the deadline shed check, so a
        caller whose budget would expire while queued is shed up front.
        *log* (a :class:`~repro.resilience.events.ResilienceLog`) also
        receives this server's deadline-shed events.
        """
        if not controller.service:
            controller.service = self.name
        self.admission = controller
        self.resilience_log = log if log is not None else controller.log
        if controller.log is None:
            controller.log = self.resilience_log
        return self

    # -- dispatch ----------------------------------------------------------------

    def dispatch(
        self, envelope: SoapEnvelope, *, parent: "TraceContext | None" = None
    ) -> SoapEnvelope:
        """Execute one request envelope, always returning a response (faults
        included — never raising, except :class:`ServiceCrash`).

        When the observability layer is installed on the serving network, a
        server span wraps the dispatch: parented by *parent* (the request's
        ``Traceparent`` header, decoded in :meth:`handle_http`), timed on
        the host clock, with the method's RED sample recorded on
        completion.  A :class:`ServiceCrash` still exports the
        span (error ``ServiceCrash``): the collector is an omniscient
        observer in the simulation, and dropping the span would orphan any
        children it already parented (the GRAM hops that completed before
        the crash).
        """
        obs = (
            getattr(self.network, "observability", None) if self.traced else None
        )
        if obs is None:
            return self._dispatch(envelope)[0]
        method_name = envelope.body.tag.local
        if self._red_registry is not obs.metrics:
            self._red_registry = obs.metrics
            self._red_series = {}
        series = self._red_series.get(method_name)
        if series is None:
            series = self._red_series[method_name] = obs.metrics.series(
                self.name, method_name, "server"
            )
        tracer = obs.tracer
        span = tracer.start(method_name, "server", self.name, self.host, parent)
        try:
            response, error = self._dispatch(envelope, span)
        except ServiceCrash:
            tracer.end(span, error="ServiceCrash")
            series.record(span.end - span.start, True)
            raise
        tracer.end(span, error=error)
        series.record(span.end - span.start, error != "")
        return response

    def _dispatch(
        self, envelope: SoapEnvelope, span=None
    ) -> tuple[SoapEnvelope, str]:
        """The seed dispatch path: the response, and the error code its
        caller decodes from it ("" for a result).  *span*, when tracing, is
        the server span, marked when the response is a replay.

        A :class:`PortalError` answers with its own fault; a
        :class:`TransportError` (a backend this service calls is
        unreachable) with a retryable ``Portal.ServiceUnavailable``; any
        other exception with an unclassified ``Server`` fault.  A
        :class:`ServiceCrash` passes: the process died."""
        method_name = envelope.body.tag.local
        idem_key = key_from_headers(envelope.headers) if envelope.headers else ""
        if self.replay_cache is not None and idem_key:
            cached = self.replay_cache.get(idem_key)
            if cached is not None:
                self.replays_served += 1
                if span is not None:
                    span.attributes["replayed"] = True
                return SoapEnvelope.parse(cached), ""
        inbound = (
            Deadline.from_headers(envelope.headers) if envelope.headers else None
        )
        try:
            if inbound is not None and self.clock is not None:
                # the monotone-budget invariant: a nested hop's deadline can
                # never be later than its enclosing call's (stale budgets
                # raise the terminal Portal.BudgetViolation here)
                check_hop_budget(
                    inbound, clock=self.clock,
                    service=self.name, method=method_name,
                )
            ticket = self._admit(method_name, envelope)
            try:
                self._shed_if_expired(method_name, inbound, ticket)
                exposed = self.methods.get(method_name)
                if exposed is None:
                    raise InvalidRequestError(
                        f"service {self.name!r} has no method {method_name!r}",
                        {"method": method_name},
                    )
                params = [decode_value(child) for child in envelope.body.children]
                for interceptor in self.interceptors:
                    interceptor(method_name, params, envelope)
                set_current_key(idem_key)
                if inbound is not None:
                    # while the handler runs, its request's deadline is the
                    # enclosing budget every nested call must fit inside
                    push_inbound_deadline(inbound)
                try:
                    result = exposed.func(*params)
                finally:
                    if inbound is not None:
                        pop_inbound_deadline()
                    set_current_key("")
            finally:
                if ticket is not None:
                    self.admission.release(ticket)
            self.calls_served += 1
            # still inside the fault boundary: a result that cannot be
            # encoded is a fault, not an escape
            response = response_envelope(self.namespace, method_name, result)
            if self.replay_cache is not None and idem_key:
                # the durable response record is part of the ack: if the
                # disk cannot hold it, refuse (retryably) rather than hand
                # out a keyed response a crash-restarted instance would not
                # be able to replay
                self.replay_cache.put(idem_key, response.serialize())
        except ServiceCrash:
            raise  # the process died: no fault, no response, nothing at all
        except PortalError as err:
            self.faults_returned += 1
            fault = SoapFault.from_portal_error(err, actor=self.name)
            # the code the caller's SoapFault.to_portal_error reconstructs
            return SoapEnvelope(fault.to_xml()), fault.to_portal_error().code
        except TransportError as exc:
            # a backend behind this service is unreachable: another attempt,
            # here or at another provider, may connect
            self.faults_returned += 1
            fault = SoapFault.from_portal_error(
                ServiceUnavailableError(
                    f"transport failure behind {self.name}: {exc}",
                    {"error": type(exc).__name__},
                ),
                actor=self.name,
            )
            return SoapEnvelope(fault.to_xml()), ServiceUnavailableError.code
        except Exception as exc:  # noqa: BLE001 - service boundary
            self.faults_returned += 1
            fault = SoapFault(
                faultcode="Server",
                faultstring=f"unhandled {type(exc).__name__}: {exc}",
                faultactor=self.name,
            )
            return SoapEnvelope(fault.to_xml()), fault.faultcode
        return response, ""

    def _admit(self, method_name: str, envelope: SoapEnvelope):
        """Run the admission controller, if one is attached.

        Returns the admission ticket (or ``None`` with no controller); a
        refusal propagates as the controller's retryable
        ``Portal.ServerBusy`` fault.  The request's principal header
        (``urn:gce:loadmgmt``) selects the fair-queue lane.
        """
        if self.admission is None:
            return None
        principal = (
            principal_from_headers(envelope.headers) if envelope.headers else None
        )
        return self.admission.admit(principal, method=method_name)

    def _shed_if_expired(self, method_name: str, deadline, ticket=None) -> None:
        """Reject work whose caller's deadline has passed — or *would* pass
        while the request waits its turn in the admission queue.

        The client stamps each request with an absolute virtual-time
        deadline header (:mod:`repro.resilience.policy`), which
        :meth:`_dispatch` has already decoded into *deadline* (``None``
        when absent); by the time the request has crossed the wire that
        budget may be spent, and running the method would only produce an
        answer nobody is waiting for.
        The shed's detail always carries the modelled ``queueWait`` so
        clients can tell "server overloaded" (large wait) from "deadline
        too tight" (expired with no queue to blame).
        """
        if self.clock is None or deadline is None:
            return
        queue_wait = ticket.queue_wait if ticket is not None else 0.0
        if deadline.expired(self.clock):
            detail = {
                "method": method_name,
                "deadline": repr(deadline.at),
                "queueWait": f"{queue_wait:.6f}",
                "expiredBy": f"{self.clock.now - deadline.at:.6f}",
            }
            message = f"deadline passed before {method_name!r} started; shedding"
        elif queue_wait > deadline.remaining(self.clock):
            detail = {
                "method": method_name,
                "deadline": repr(deadline.at),
                "queueWait": f"{queue_wait:.6f}",
                "remaining": f"{deadline.remaining(self.clock):.6f}",
            }
            message = (
                f"deadline would pass while {method_name!r} waits "
                f"{queue_wait:.3f}s in queue; shedding"
            )
        else:
            return
        self.requests_shed += 1
        self._note_shed(method_name, message, detail)
        raise DeadlineExceededError(message, detail)

    def _note_shed(self, method_name: str, message: str, detail: dict) -> None:
        """Make a deadline shed visible to the resilience stream and traces.

        With a resilience log attached, one record carries the event —
        the observability bridge (``observe_log``) turns it into a span
        annotation and counter.  Without a log, the ambient bundle (if
        any) is annotated directly so sheds are never invisible.
        """
        if self.resilience_log is not None:
            self.resilience_log.record(
                resilience_events.SHED,
                message,
                service=self.name,
                operation=method_name,
                detail=detail,
            )
            return
        obs = (
            getattr(self.network, "observability", None) if self.traced else None
        )
        if obs is not None:
            obs.metrics.count_event(resilience_events.SHED)
            obs.tracer.annotate(
                resilience_events.SHED,
                message=message,
                service=self.name,
                operation=method_name,
                **detail,
            )

    # -- HTTP endpoint -------------------------------------------------------------

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """The HTTP face of the service (mounted on an
        :class:`repro.transport.server.HttpServer`).

        The fault boundary of the wire: a request that does not parse as a
        SOAP envelope gets a ``Client`` fault, and any other failure a
        ``Server`` fault — a SOAP envelope either way, never a text body.
        A transport failure behind the service is the retryable
        ``Portal.ServiceUnavailable`` (see :meth:`_dispatch`).  Only a
        :class:`ServiceCrash` passes: the process died.
        """
        if request.method != "POST":
            return HttpResponse(405, body="SOAP endpoint requires POST")
        try:
            envelope = SoapEnvelope.parse(request.body)
        except ValueError as exc:
            return self._fault_response(
                SoapFault("Client", f"malformed SOAP request: {exc}", self.name)
            )
        raw_parent = request.headers.get(TRACEPARENT)
        parent = (
            TraceContext.from_traceparent(raw_parent) if raw_parent else None
        )
        try:
            response = self.dispatch(envelope, parent=parent)
            body = response.serialize()
        except ServiceCrash:
            raise
        except Exception as exc:  # noqa: BLE001 - the HTTP boundary
            self.faults_returned += 1
            return self._fault_response(SoapFault(
                "Server", f"unhandled {type(exc).__name__}: {exc}", self.name
            ))
        status = 500 if response.is_fault else 200
        return HttpResponse(status, {"Content-Type": "text/xml"}, body)

    @staticmethod
    def _fault_response(fault: SoapFault) -> HttpResponse:
        return HttpResponse(
            500,
            {"Content-Type": "text/xml"},
            SoapEnvelope(fault.to_xml()).serialize(),
        )

    def mount(self, server: HttpServer, path: str = "/soap") -> str:
        """Mount this service on a host; returns the endpoint URL."""
        server.mount(path, self.handle_http)
        self.host = server.host
        if server.network is not None:
            self.clock = server.network.clock
            self.network = server.network
        return f"http://{server.host}{path}"
