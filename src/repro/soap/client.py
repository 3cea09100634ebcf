"""A SOAP client proxy.

"The User Interface server ... maintains client proxies to the UDDI and SOAP
Service Providers."  :class:`SoapClient` is that proxy: it encodes an RPC
call into a request envelope, posts it over the virtual network, decodes the
response, and re-raises the provider's portal errors locally.  Header
providers let the security layer attach signed SAML assertions to every
outgoing request without the application code knowing (§4).

The proxy is also where client-side resilience lives: an optional
:class:`~repro.resilience.policy.RetryPolicy` re-issues calls that failed
with a *retryable* error (transport failures and ``PortalError.retryable``
faults — the paper's common vocabulary makes the classification portable
across providers), backing off by advancing the virtual clock; an optional
per-call timeout stamps a deadline header on the request so the server can
shed work whose caller has already given up.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.durability.idempotency import idempotency_header
from repro.faults import DeadlineExceededError, PortalError, retry_after_hint
from repro.loadmgmt.headers import principal_header
from repro.observability.context import TRACEPARENT, traceparent
from repro.resilience import events
from repro.resilience.policy import (
    NO_RETRY,
    Deadline,
    current_inbound_deadline,
    is_retryable,
)
from repro.soap.encoding import decode_value
from repro.soap.message import (
    SoapEnvelope,
    SoapFault,
    SoapFaultError,
    SoapResponseError,
    request_envelope,
)
from repro.transport.client import HttpClient
from repro.transport.network import VirtualNetwork
from repro.xmlutil.element import XmlElement

# A header provider is called per request with (method, params) and returns
# header entries to attach (e.g. a freshly signed SAML assertion).
HeaderProvider = Callable[[str, list[Any]], list[XmlElement]]


class SoapClient:
    """A dynamic RPC proxy bound to one SOAP endpoint URL.

    Calls can be made explicitly (``client.call("ls", "/home")``) or through
    attribute magic (``client.ls("/home")``) — the latter reads like the
    generated client stubs the paper's teams used.

    Without a ``retry_policy`` the proxy behaves exactly like the seed: one
    attempt, first error wins.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        endpoint: str,
        namespace: str,
        *,
        source: str = "client",
        http_client: HttpClient | None = None,
        retry_policy=None,
        resilience_log=None,
        service_name: str = "",
        retry_seed: int = 0,
        traced: bool = True,
        principal: str = "",
    ):
        self.network = network
        self.clock = network.clock
        self.endpoint = endpoint
        self.namespace = namespace
        self.retry_policy = retry_policy
        self.log = resilience_log
        self.source = source
        self.service_name = service_name or endpoint
        #: the ambient observability bundle, if installed on the network and
        #: not opted out (dashboard portlets pass ``traced=False`` so the
        #: observability plane does not observe itself)
        self.traced = traced
        self.http = http_client or HttpClient(network, source)
        if self.log is not None:
            self.http.breaker_listener = self._record_breaker_transition
        #: the principal (fair-queue lane) this proxy's requests belong to;
        #: empty = no header, the server's anonymous lane
        self.principal = principal
        self.header_providers: list[HeaderProvider] = []
        if principal:
            self.header_providers.append(self._principal_headers)
        self.last_response: SoapEnvelope | None = None
        # per-method span furniture — {method: (call span name, RED
        # series)} — rebuilt when the registry changes (the observability
        # bundle was reinstalled)
        self._traced_registry = None
        self._traced_methods: dict[str, tuple[str, Any]] = {}
        self._endpoint_attrs = {"endpoint": self.endpoint}
        self.calls_made = 0
        self.retries_performed = 0
        self.busy_backoffs = 0
        self._retry_rng = random.Random(retry_seed)

    def add_header_provider(self, provider: HeaderProvider) -> None:
        self.header_providers.append(provider)

    # -- observability plumbing -----------------------------------------------

    @property
    def obs(self):
        """The network's observability bundle (lazy, so install order does
        not matter), or ``None`` when tracing is off for this client."""
        if not self.traced:
            return None
        return getattr(self.network, "observability", None)

    def _principal_headers(self, method: str, params: list[Any]) -> list[XmlElement]:
        """Stamp the request with this proxy's admission lane."""
        return [principal_header(self.principal)]

    # -- resilience plumbing --------------------------------------------------

    def _record_breaker_transition(self, host: str, old: str, new: str) -> None:
        self.log.record(
            events.BREAKER,
            f"breaker for {host!r}: {old} -> {new}",
            service=self.service_name,
            detail={"host": host, "from": old, "to": new},
        )

    @staticmethod
    def _error_code(exc: BaseException) -> str:
        return exc.code if isinstance(exc, PortalError) else type(exc).__name__

    # -- the call path --------------------------------------------------------

    def _call_once(
        self, method: str, params: list[Any], deadline, idem_key: str = "",
        span=None,
    ) -> Any:
        """One request/response round trip (the seed's whole call path).

        *span* is the caller's attempt span, when tracing — its context
        rides the ``Traceparent`` transport header.
        """
        headers: list[XmlElement] = []
        for provider in self.header_providers:
            headers.extend(provider(method, params))
        if deadline is not None:
            headers.append(deadline.to_header())
        if idem_key:
            headers.append(idempotency_header(idem_key))
        envelope = request_envelope(self.namespace, method, params, headers)
        http_headers = {
            "Content-Type": "text/xml",
            "SOAPAction": f"{self.namespace}#{method}",
        }
        if span is not None:
            http_headers[TRACEPARENT] = traceparent(span.trace_id, span.span_id)
        response = self.http.post(
            self.endpoint, envelope.serialize(), http_headers
        )
        self.calls_made += 1
        # the fault boundary of the response: whatever arrives is a result,
        # the provider's fault, or a classified SoapResponseError
        try:
            parsed = SoapEnvelope.parse(response.body)
            self.last_response = parsed
            if parsed.is_fault:
                fault = SoapFault.from_xml(parsed.body)
            else:
                return_node = parsed.body.find("return")
                return None if return_node is None else decode_value(return_node)
        except Exception as exc:  # noqa: BLE001 - the wire boundary
            raise SoapResponseError(
                f"unreadable response from {self.endpoint} to {method!r}: "
                f"{type(exc).__name__}: {exc}",
                response.status,
            ) from exc
        portal_error = fault.to_portal_error()
        if portal_error is not None:
            raise portal_error
        raise SoapFaultError(fault)

    def _attempt(
        self, method: str, params: list[Any], deadline, idem_key: str = "",
        tracer=None, series=None,
    ) -> Any:
        """One attempt, wrapped in a client span (on *tracer*) + RED sample
        (on *series*) when the observability layer is installed."""
        if tracer is None:
            return self._call_once(method, params, deadline, idem_key)
        span = tracer.start(method, "client", self.service_name, self.source)
        try:
            result = self._call_once(method, params, deadline, idem_key, span)
        except Exception as exc:
            tracer.end(span, error=self._error_code(exc))
            series.record(span.end - span.start, True)
            raise
        tracer.end(span)
        series.record(span.end - span.start, False)
        return result

    def call(
        self,
        method: str,
        *params: Any,
        timeout: float | None = None,
        idempotency_key: str = "",
    ) -> Any:
        """Invoke ``method(*params)`` on the remote service.

        ``timeout`` (virtual seconds) bounds the whole call including
        retries and backoff; it travels to the server as a deadline header.

        ``idempotency_key`` stamps every attempt of this logical call with
        the same key header (``urn:gce:durability``), so a provider that
        journals keys — or a failover substitute attached to the same
        journal — returns the first attempt's result instead of redoing the
        work.  Essential for retried *submissions*: the request may have
        been accepted even though the response was lost.
        """
        # budget propagation: inside a deadline-carrying dispatch, a nested
        # call with no explicit timeout inherits the caller's remaining
        # budget, and an explicit timeout is clamped to it — the absolute
        # deadline riding the headers can only move earlier down the chain
        # (the server enforces this as Portal.BudgetViolation)
        enclosing = current_inbound_deadline()
        deadline = Deadline.after(self.clock, timeout) if timeout is not None else None
        if enclosing is not None and (
            deadline is None or deadline.at > enclosing.at
        ):
            deadline = enclosing
        param_list = list(params)
        obs = self.obs
        if obs is None:
            return self._call_loop(method, param_list, deadline, idempotency_key)
        return self._traced_call(
            method, param_list, deadline, idempotency_key, obs
        )

    def _traced_call(
        self, method: str, param_list: list[Any], deadline,
        idempotency_key: str, obs,
    ) -> Any:
        # the logical call (retry loop included) is one client span; each
        # attempt below opens a child span whose context rides the
        # transport header.  Inlined start/end rather than the span()
        # context manager: the generator machinery is measurable per call.
        if self._traced_registry is not obs.metrics:
            self._traced_registry = obs.metrics
            self._traced_methods = {}
        furniture = self._traced_methods.get(method)
        if furniture is None:
            furniture = self._traced_methods[method] = (
                f"call {method}",
                obs.metrics.series(self.service_name, method, "client"),
            )
        tracer = obs.tracer
        span = tracer.start(
            furniture[0], "client", self.service_name, self.source,
            attributes=self._endpoint_attrs,
        )
        try:
            result = self._call_loop(
                method, param_list, deadline, idempotency_key, tracer,
                furniture[1],
            )
        except PortalError as exc:
            tracer.end(span, error=exc.code)
            raise
        except Exception as exc:
            tracer.end(span, error=type(exc).__name__)
            raise
        tracer.end(span)
        return result

    def _call_loop(
        self, method: str, param_list: list[Any], deadline,
        idempotency_key: str, tracer=None, series=None,
    ) -> Any:
        """The retry loop around individual attempts."""
        policy = self.retry_policy or NO_RETRY
        attempts = 0
        while True:
            if deadline is not None and deadline.expired(self.clock):
                raise self._deadline_error(method, deadline)
            try:
                return self._attempt(
                    method, param_list, deadline, idempotency_key, tracer,
                    series,
                )
            except Exception as exc:
                attempts += 1
                if not is_retryable(exc):
                    raise
                if not policy.retries_remaining(attempts):
                    # a policy-less client gave nothing up — it made its one
                    # attempt, and any rotation above logs its own events
                    if self.retry_policy is not None:
                        self._record_give_up(method, attempts, exc)
                    raise
                delay = policy.backoff(attempts - 1, self._retry_rng)
                hint = retry_after_hint(exc)
                if hint is not None:
                    # the server said exactly when it can take the request
                    # again (admission control's retryAfter); waiting less
                    # guarantees another refusal, waiting the blind
                    # exponential amount wastes budget — honour the hint
                    delay = hint
                    self.busy_backoffs += 1
                if deadline is not None and self.clock.now + delay >= deadline.at:
                    raise self._deadline_error(method, deadline) from exc
                self._record_retry(method, attempts, delay, exc, hint=hint)
                self.retries_performed += 1
                self.clock.advance(delay)

    def _deadline_error(self, method: str, deadline) -> DeadlineExceededError:
        err = DeadlineExceededError(
            f"deadline passed calling {method!r} on {self.endpoint}",
            {"method": method, "deadline": repr(deadline.at)},
        )
        if self.log is not None:
            self.log.record(
                events.DEADLINE,
                err.message,
                service=self.service_name,
                operation=method,
                detail={"endpoint": self.endpoint},
            )
        return err

    def _record_retry(
        self,
        method: str,
        attempts: int,
        delay: float,
        exc: BaseException,
        *,
        hint: float | None = None,
    ) -> None:
        if self.log is None:
            return
        detail = {
            "endpoint": self.endpoint,
            "attempt": str(attempts),
            "backoff": f"{delay:.6f}",
            "error": self._error_code(exc),
        }
        if hint is not None:
            detail["retryAfter"] = f"{hint:.6f}"
        self.log.record(
            events.RETRY,
            f"retry {attempts} of {method!r} after {self._error_code(exc)}",
            service=self.service_name,
            operation=method,
            detail=detail,
        )

    def _record_give_up(
        self, method: str, attempts: int, exc: BaseException
    ) -> None:
        if self.log is None:
            return
        self.log.record(
            events.GIVE_UP,
            f"giving up on {method!r} after {attempts} attempts",
            service=self.service_name,
            operation=method,
            detail={"endpoint": self.endpoint, "error": self._error_code(exc)},
        )

    def __getattr__(self, name: str) -> Callable[..., Any]:
        if name.startswith("_"):
            raise AttributeError(name)

        def invoke(*params: Any) -> Any:
            return self.call(name, *params)

        invoke.__name__ = name
        return invoke
