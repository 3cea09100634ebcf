"""GRAM: the GSI-authenticated gatekeeper and the ``globusrun`` client.

The SDSC "Globusrun Web Service uses the Python implementation of GSI SOAP
and pyGlobus to perform the submission of secure and authenticated jobs on
the Grid."  This module is the pyGlobus/GRAM layer under that service: a
gatekeeper endpoint per compute resource that verifies a proxy-certificate
chain, checks the grid-map file, parses RSL, and hands the job to the local
batch scheduler.

The wire protocol is JSON over the virtual network's HTTP (GRAM predates
SOAP and is not a web service — the Globusrun *web service* in
:mod:`repro.services.jobsubmit` wraps this client).
"""

from __future__ import annotations

import json
from typing import Any

from repro.durability.idempotency import IdempotencyIndex
from repro.faults import (
    AuthenticationError,
    AuthorizationError,
    DeadlineExceededError,
    InvalidRequestError,
    JobError,
    PortalError,
    ResourceNotFoundError,
    ServiceUnavailableError,
)
from repro.grid.jobs import JobSpec
from repro.grid.queuing.base import BatchScheduler
from repro.observability.context import TRACEPARENT, TraceContext, traceparent
from repro.security import crypto
from repro.security.gsi import GsiError, ProxyCertificate, SimpleCA
from repro.transport.client import HttpClient
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.network import ServiceCrash, VirtualNetwork

# ---------------------------------------------------------------------------
# RSL (Resource Specification Language) subset
# ---------------------------------------------------------------------------


def rsl_for(spec: JobSpec) -> str:
    """Render a job spec as an RSL string."""
    parts = [f"(executable={spec.executable})"]
    if spec.arguments:
        parts.append(f"(arguments={' '.join(spec.arguments)})")
    if spec.cpus != 1:
        parts.append(f"(count={spec.cpus})")
    if spec.queue:
        parts.append(f"(queue={spec.queue})")
    parts.append(f"(maxWallTime={int(spec.wallclock_limit)})")
    if spec.directory:
        parts.append(f"(directory={spec.directory})")
    if spec.name != "job":
        parts.append(f"(jobName={spec.name})")
    if spec.account:
        parts.append(f"(project={spec.account})")
    if spec.environment:
        env = "".join(
            f"({key} {value})" for key, value in sorted(spec.environment.items())
        )
        parts.append(f"(environment={env})")
    return "&" + "".join(parts)


def parse_rsl(rsl: str) -> JobSpec:
    """Parse an RSL string into a job spec (subset grammar)."""
    text = rsl.strip()
    if not text.startswith("&"):
        raise InvalidRequestError(f"RSL must start with '&': {text[:30]!r}")
    spec = JobSpec(name="job", executable="")
    for key, value in _rsl_pairs(text[1:]):
        if key == "executable":
            spec.executable = value
        elif key == "arguments":
            spec.arguments = value.split()
        elif key == "count":
            spec.cpus = _rsl_number(int, key, value)
        elif key == "queue":
            spec.queue = value
        elif key == "maxWallTime":
            spec.wallclock_limit = _rsl_number(float, key, value)
        elif key == "directory":
            spec.directory = value
        elif key == "jobName":
            spec.name = value
        elif key == "project":
            spec.account = value
        elif key == "environment":
            for env_key, env_value in _rsl_env_pairs(value):
                spec.environment[env_key] = env_value
        else:
            raise InvalidRequestError(f"unknown RSL attribute {key!r}")
    if not spec.executable:
        raise InvalidRequestError("RSL specifies no executable")
    return spec


def _rsl_number(convert, key: str, value: str):
    try:
        return convert(value)
    except ValueError:
        raise InvalidRequestError(
            f"RSL {key} is not a number: {value[:30]!r}"
        ) from None


def _rsl_pairs(text: str):
    """Yield (key, value) from '(k=v)(k=v)...' honouring nested parens."""
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise InvalidRequestError(f"malformed RSL near {text[i:i+20]!r}")
        depth, start = 1, i + 1
        i += 1
        while i < len(text) and depth:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise InvalidRequestError("unbalanced parentheses in RSL")
        clause = text[start:i - 1]
        key, eq, value = clause.partition("=")
        if not eq:
            raise InvalidRequestError(f"RSL clause has no '=': {clause!r}")
        yield key.strip(), value.strip()


def _rsl_env_pairs(text: str):
    """Yield (key, value) from '(K V)(K2 V2)'."""
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise InvalidRequestError(f"malformed RSL environment: {text!r}")
        end = text.find(")", i)
        if end < 0:
            raise InvalidRequestError("unbalanced RSL environment clause")
        inner = text[i + 1:end]
        key, _, value = inner.partition(" ")
        yield key.strip(), value.strip()
        i = end + 1


# ---------------------------------------------------------------------------
# proxy chain serialization (simulation shortcut: see security/crypto.py)
# ---------------------------------------------------------------------------


def serialize_chain(leaf: ProxyCertificate) -> list[dict[str, Any]]:
    """Serialize a proxy chain, leaf first, for the simulated wire."""
    return [
        {
            "subject": cert.subject,
            "issuer": cert.issuer,
            "not_after": cert.not_after,
            "depth": cert.depth,
            "signature": crypto.b64(cert.signature),
            "signing_key": crypto.b64(cert.signing_key),
        }
        for cert in leaf.chain()
    ]


def deserialize_chain(data: list[dict[str, Any]]) -> ProxyCertificate:
    """Rebuild the linked chain; returns the leaf."""
    parent: ProxyCertificate | None = None
    for entry in reversed(data):
        parent = ProxyCertificate(
            subject=entry["subject"],
            issuer=entry["issuer"],
            not_after=float(entry["not_after"]),
            depth=int(entry["depth"]),
            signature=crypto.unb64(entry["signature"]),
            signing_key=crypto.unb64(entry["signing_key"]),
            parent=parent,
        )
    if parent is None:
        raise AuthenticationError("empty proxy chain")
    return parent


# ---------------------------------------------------------------------------
# Gatekeeper
# ---------------------------------------------------------------------------


class Gatekeeper:
    """The per-resource GRAM gatekeeper.

    Verifies the submitted GSI proxy chain against the CA, maps the grid
    identity to a local account through the grid-map file, then parses the
    RSL and submits to the local scheduler.
    """

    def __init__(
        self,
        scheduler: BatchScheduler,
        ca: SimpleCA,
        *,
        journal=None,
        network: VirtualNetwork | None = None,
    ):
        self.scheduler = scheduler
        self.ca = ca
        self.gridmap: dict[str, str] = {}
        self.submissions = 0
        #: journal-backed idempotency-key -> job-id map; a retried submit
        #: (same key) returns the original job id even across a crash-restart
        self.idempotency = IdempotencyIndex(journal)
        #: lets the gatekeeper discover the ambient observability bundle
        self.network = network
        self.host = getattr(scheduler, "host", "")

    def add_gridmap_entry(self, identity: str, local_user: str) -> None:
        self.gridmap[identity] = local_user

    def _authorize(self, chain_data: list[dict[str, Any]]) -> str:
        try:
            leaf = deserialize_chain(chain_data)
            identity = self.ca.verify_chain(leaf, now=self.scheduler.clock.now)
        except (GsiError, KeyError, ValueError, TypeError, AttributeError) as exc:
            # a mistyped chain (not a list of certificate objects) is as
            # unauthenticated as a forged one
            raise AuthenticationError(f"GSI authentication failed: {exc}") from exc
        if identity not in self.gridmap:
            raise AuthorizationError(
                f"identity {identity!r} not in grid-map file",
                {"identity": identity},
            )
        return self.gridmap[identity]

    # -- operations -------------------------------------------------------------

    def submit(
        self, chain_data: list[dict[str, Any]], rsl: str, key: str = ""
    ) -> str:
        local_user = self._authorize(chain_data)
        replayed = self.idempotency.get(key)
        if replayed is not None:
            return replayed
        spec = parse_rsl(rsl)
        spec.environment.setdefault("LOGNAME", local_user)
        self.submissions += 1
        job_id = self.scheduler.submit(spec)
        self.idempotency.put(key, job_id)
        self.publish_queue_gauges()
        return job_id

    def status(self, chain_data: list[dict[str, Any]], job_id: str) -> dict[str, Any]:
        self._authorize(chain_data)
        summary = self.scheduler.job(job_id).summary()
        self.publish_queue_gauges()
        return summary

    def publish_queue_gauges(self) -> list[dict[str, Any]]:
        """Export this resource's per-queue load to the metrics registry.

        Gauge labels are ``host/queue`` (the per-host ``queue_depth`` gauge
        the monitoring service already samples keeps its bare-host label),
        so the metascheduler's policies can weigh individual queues, not
        just whole hosts.  Returns the scheduler's stat rows either way.
        """
        rows = self.scheduler.queue_stats()
        obs = (
            getattr(self.network, "observability", None)
            if self.network is not None
            else None
        )
        if obs is not None:
            for row in rows:
                label = f"{row['host']}/{row['queue']}"
                obs.metrics.set_gauge("queue_depth", label, row["depth"])
                obs.metrics.set_gauge("queue_drain_rate", label, row["drain_rate"])
        return rows

    def output(self, chain_data: list[dict[str, Any]], job_id: str) -> dict[str, str]:
        self._authorize(chain_data)
        record = self.scheduler.job(job_id)
        if not record.finished:
            raise JobError(f"job {job_id} still {record.state.value}")
        return {"stdout": record.stdout, "stderr": record.stderr}

    def cancel(self, chain_data: list[dict[str, Any]], job_id: str) -> bool:
        self._authorize(chain_data)
        self.scheduler.cancel(job_id)
        return True

    # -- HTTP face ------------------------------------------------------------------

    def handle_http(self, request: HttpRequest) -> HttpResponse:
        """The gatekeeper's HTTP face, wrapped in a server span when the
        observability layer is installed.

        The JSON body is parsed once, here; a body that is not a well-typed
        GRAM request is refused with 400 ``Portal.InvalidRequest`` (and
        still gets its ``gatekeeper.unknown`` span and RED sample).  The
        caller's trace context rides the ``Traceparent`` header, as on
        every SOAP hop.
        """
        try:
            payload = _parse_payload(request.body)
        except InvalidRequestError as exc:
            payload, refusal = {}, _error_response(400, exc)
        else:
            refusal = None
        obs = (
            getattr(self.network, "observability", None)
            if self.network is not None
            else None
        )
        if obs is None:
            return refusal or self._handle(payload)
        op = payload.get("op") or "unknown"
        raw_parent = request.headers.get(TRACEPARENT)
        parent = TraceContext.from_traceparent(raw_parent) if raw_parent else None
        started = obs.clock.now
        span = obs.tracer.start(
            f"gatekeeper.{op}",
            kind="server",
            service="Gatekeeper",
            host=self.host,
            parent=parent,
        )
        try:
            response = refusal or self._handle(payload)
        except ServiceCrash:
            obs.tracer.end(span, error="ServiceCrash")
            obs.metrics.record_call(
                "Gatekeeper", op, "server", obs.clock.now - started, True
            )
            raise
        error = ""
        if not response.ok:
            try:
                error = str(json.loads(response.body).get("error", ""))
            except (json.JSONDecodeError, AttributeError):
                error = f"HTTP {response.status}"
        obs.tracer.end(span, error=error)
        obs.metrics.record_call(
            "Gatekeeper", op, "server", obs.clock.now - started, bool(error)
        )
        return response

    def _handle(self, payload: dict[str, Any]) -> HttpResponse:
        from repro.resilience.policy import (
            Deadline,
            pop_inbound_deadline,
            push_inbound_deadline,
        )

        deadline = None
        raw = payload.get("deadline")
        if raw is not None:
            try:
                deadline = Deadline(float(raw))
            except (TypeError, ValueError):
                pass  # budget metadata must never break a call
        if deadline is not None and deadline.expired(self.scheduler.clock):
            return _error_response(
                503, DeadlineExceededError("request deadline passed before dispatch")
            )
        if deadline is not None:
            push_inbound_deadline(deadline)
        try:
            return self._dispatch(payload)
        finally:
            if deadline is not None:
                pop_inbound_deadline()

    def _dispatch(self, payload: dict[str, Any]) -> HttpResponse:
        try:
            op = payload.get("op", "")
            chain = payload.get("proxy", [])
            if op == "submit":
                result: Any = self.submit(
                    chain, payload["rsl"], payload.get("key", "")
                )
            elif op == "status":
                result = self.status(chain, payload["job"])
            elif op == "output":
                result = self.output(chain, payload["job"])
            elif op == "cancel":
                result = self.cancel(chain, payload["job"])
            else:
                raise InvalidRequestError(f"unknown GRAM operation {op!r}")
        except (AuthenticationError, AuthorizationError) as exc:
            return _error_response(403, exc)
        except (InvalidRequestError, JobError, ResourceNotFoundError) as exc:
            return _error_response(400, exc)
        except KeyError as exc:
            return _error_response(400, InvalidRequestError(f"missing field {exc}"))
        return HttpResponse(200, body=json.dumps({"result": result}))


#: payload fields the gatekeeper reads as strings
_STRING_FIELDS = ("op", "rsl", "job", "key")


def _parse_payload(body: str) -> dict[str, Any]:
    """Decode a GRAM request body: a JSON object whose string fields are
    strings, or :class:`InvalidRequestError`."""
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise InvalidRequestError(f"malformed GRAM request: {exc}") from None
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            f"GRAM request must be a JSON object, not {type(payload).__name__}"
        )
    for name in _STRING_FIELDS:
        if name in payload and not isinstance(payload[name], str):
            raise InvalidRequestError(f"GRAM field {name!r} must be a string")
    return payload


def _error_response(status: int, exc: PortalError) -> HttpResponse:
    return HttpResponse(
        status, body=json.dumps({"error": exc.code, "message": exc.message})
    )


class GramClient:
    """The ``globusrun`` client side."""

    def __init__(
        self,
        network: VirtualNetwork,
        proxy: ProxyCertificate,
        *,
        source: str = "client",
    ):
        self.network = network
        self.clock = network.clock
        self.proxy = proxy
        self.source = source
        self._http = HttpClient(network, source)
        self._chain = serialize_chain(proxy)

    def _call(self, contact: str, op: str, **fields: Any) -> Any:
        obs = getattr(self.network, "observability", None)
        if obs is None:
            return self._call_once(contact, op, None, **fields)
        started = self.clock.now
        span = obs.tracer.start(
            f"gram.{op}",
            kind="client",
            service="GRAM",
            host=self.source,
            attributes={"contact": contact},
        )
        try:
            result = self._call_once(contact, op, span, **fields)
        except Exception as exc:
            code = exc.code if isinstance(exc, PortalError) else type(exc).__name__
            obs.tracer.end(span, error=code)
            obs.metrics.record_call(
                "GRAM", op, "client", self.clock.now - started, True
            )
            raise
        obs.tracer.end(span)
        obs.metrics.record_call(
            "GRAM", op, "client", self.clock.now - started, False
        )
        return result

    def _call_once(self, contact: str, op: str, span, **fields: Any) -> Any:
        from repro.resilience.policy import current_inbound_deadline

        payload = {"op": op, "proxy": self._chain, **fields}
        # GRAM is JSON over HTTP, not SOAP, so the inbound request's budget
        # rides the payload: a gatekeeper working past the point the
        # original caller gave up is wasted work.
        inherited = current_inbound_deadline()
        if inherited is not None:
            payload["deadline"] = inherited.at
        headers = (
            {TRACEPARENT: traceparent(span.trace_id, span.span_id)}
            if span is not None
            else None
        )
        response = self._http.post(
            f"http://{contact}/jobmanager", json.dumps(payload), headers
        )
        if not response.ok:
            # An error body is only JSON if the gatekeeper itself produced
            # it; a proxy/server-boundary failure (e.g. a bare 500 page) is
            # not, and must surface as a retryable transport-class fault —
            # not a JSONDecodeError masking the real problem.
            try:
                data = json.loads(response.body)
            except json.JSONDecodeError:
                raise ServiceUnavailableError(
                    f"GRAM {op} to {contact} failed: "
                    f"HTTP {response.status} with non-JSON body "
                    f"{response.body[:60]!r}",
                    {"status": response.status},
                ) from None
            code = data.get("error", "Portal.Job")
            message = data.get("message", "GRAM request failed")
            raise PortalError.from_detail({"code": code, "message": message})
        try:
            data = json.loads(response.body)
        except json.JSONDecodeError:
            raise ServiceUnavailableError(
                f"GRAM {op} to {contact} returned a malformed success body "
                f"{response.body[:60]!r}"
            ) from None
        return data["result"]

    def submit(self, contact: str, rsl: str, key: str = "") -> str:
        """globusrun: submit an RSL job to a gatekeeper contact (host name).

        *key*, when given, is a client idempotency key: re-submitting with
        the same key (a retry after a lost response, a failover to a restarted
        gatekeeper) returns the originally created job id.
        """
        if key:
            return self._call(contact, "submit", rsl=rsl, key=key)
        return self._call(contact, "submit", rsl=rsl)

    def status(self, contact: str, job_id: str) -> dict[str, Any]:
        return self._call(contact, "status", job=job_id)

    def output(self, contact: str, job_id: str) -> dict[str, str]:
        return self._call(contact, "output", job=job_id)

    def cancel(self, contact: str, job_id: str) -> bool:
        return self._call(contact, "cancel", job=job_id)
