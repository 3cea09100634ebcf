"""SOAP envelopes and faults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.faults import PortalError
from repro.soap.encoding import encode_value
from repro.xmlutil.element import XmlElement, parse_xml
from repro.xmlutil.qname import QName

SOAP_ENV_NS = "http://schemas.xmlsoap.org/soap/envelope/"

_ENVELOPE = QName(SOAP_ENV_NS, "Envelope")
_HEADER = QName(SOAP_ENV_NS, "Header")
_BODY = QName(SOAP_ENV_NS, "Body")
_FAULT = QName(SOAP_ENV_NS, "Fault")


@dataclass
class SoapEnvelope:
    """A SOAP message: optional header entries plus exactly one body element."""

    body: XmlElement
    headers: list[XmlElement] = field(default_factory=list)

    def to_xml(self) -> XmlElement:
        envelope = XmlElement(_ENVELOPE)
        if self.headers:
            header = envelope.child(_HEADER)
            header.extend(self.headers)
        envelope.child(_BODY).append(self.body)
        return envelope

    def serialize(self) -> str:
        return self.to_xml().serialize(declaration=True)

    @staticmethod
    def parse(text: str | XmlElement) -> "SoapEnvelope":
        root = parse_xml(text) if isinstance(text, str) else text
        if root.tag != _ENVELOPE:
            raise ValueError(f"not a SOAP envelope: {root.tag}")
        header = body = None
        for item in root.content:  # the first Header and the first Body
            if isinstance(item, XmlElement):
                if item.tag == _BODY and body is None:
                    body = item
                elif item.tag == _HEADER and header is None:
                    header = item
        entries = body.children if body is not None else []
        if not entries:
            raise ValueError("SOAP envelope has no body element")
        if len(entries) != 1:
            raise ValueError("SOAP body must contain exactly one element")
        headers = header.children if header is not None else []
        return SoapEnvelope(entries[0], headers)

    def header(self, tag: str | QName) -> XmlElement | None:
        """First header entry with the given tag (bare name = any namespace)."""
        if isinstance(tag, str) and not tag.startswith("{"):
            for entry in self.headers:
                if entry.tag.local == tag:
                    return entry
            return None
        qtag = tag if isinstance(tag, QName) else QName.parse(tag)
        for entry in self.headers:
            if entry.tag == qtag:
                return entry
        return None

    @property
    def is_fault(self) -> bool:
        return self.body.tag == _FAULT


@dataclass
class SoapFault:
    """A SOAP 1.1 fault.

    ``faultcode`` uses the standard qualified values (``Client``, ``Server``,
    ``MustUnderstand``, ``VersionMismatch``).  Portal implementation errors
    (:mod:`repro.faults`) travel inside ``detail`` as string entries, so any
    provider's client can reconstruct the exact :class:`PortalError` subclass.
    """

    faultcode: str = "Server"
    faultstring: str = "server fault"
    faultactor: str = ""
    detail: dict[str, str] = field(default_factory=dict)

    def to_xml(self) -> XmlElement:
        node = XmlElement(_FAULT)
        node.child("faultcode", text=f"SOAP-ENV:{self.faultcode}")
        node.child("faultstring", text=self.faultstring)
        if self.faultactor:
            node.child("faultactor", text=self.faultactor)
        if self.detail:
            detail = node.child("detail")
            for key, value in self.detail.items():
                detail.child("entry").set("key", key).set_text(value)
        return node

    @staticmethod
    def from_xml(node: XmlElement) -> "SoapFault":
        if node.tag != _FAULT:
            raise ValueError(f"not a SOAP fault element: {node.tag}")
        code = node.findtext("faultcode")
        detail: dict[str, str] = {}
        detail_node = node.find("detail")
        if detail_node is not None:
            for entry in detail_node.findall("entry"):
                detail[entry.get("key", "") or ""] = entry.text
        return SoapFault(
            faultcode=code.split(":", 1)[-1] or "Server",
            faultstring=node.findtext("faultstring"),
            faultactor=node.findtext("faultactor"),
            detail=detail,
        )

    @staticmethod
    def from_portal_error(err: PortalError, actor: str = "") -> "SoapFault":
        """Map an implementation error onto the common fault convention."""
        return SoapFault(
            faultcode="Server",
            faultstring=f"{err.code}: {err.message}",
            faultactor=actor,
            detail=err.to_detail(),
        )

    def to_portal_error(self) -> PortalError | None:
        """Reconstruct the portal error, if this fault carries one."""
        if "code" in self.detail:
            return PortalError.from_detail(self.detail)
        return None


class SoapFaultError(PortalError, RuntimeError):
    """Raised by :class:`repro.soap.client.SoapClient` on a fault response
    that carries no portal error detail.

    Classified into the portal vocabulary as ``Portal.UpstreamFault`` so
    that a service relaying a foreign fault still crosses the wire with a
    stable code (§3: services "must define and relay a common set of
    error messages").  Still a ``RuntimeError`` for callers that treat an
    unmapped fault as a programming-level failure.
    """

    code = "Portal.UpstreamFault"
    retryable = False  # the upstream fault carried no retry classification

    def __init__(self, fault: SoapFault):
        super().__init__(f"{fault.faultcode}: {fault.faultstring}")
        self.fault = fault

    @property
    def portal_error(self) -> PortalError | None:
        return self.fault.to_portal_error()


class SoapResponseError(PortalError):
    """Raised by :class:`repro.soap.client.SoapClient` on a response that is
    not a readable SOAP message: a body that does not parse, an XML document
    that is not an envelope, or a return value that does not decode.

    Retryable exactly when the HTTP status was a 5xx: the server failed
    while answering, and another attempt (or provider) may succeed; any
    other status carried a malformed answer that will not change.
    """

    code = "Portal.BadResponse"
    retryable = False  # each instance classifies itself by its HTTP status

    def __init__(self, message: str, status: int):
        super().__init__(message, {"status": str(status)})
        self.retryable = 500 <= status <= 599


def request_envelope(
    service_ns: str,
    method: str,
    params: list[Any],
    headers: list[XmlElement] | None = None,
) -> SoapEnvelope:
    """Build an RPC-style request envelope for ``method(*params)``."""
    body = XmlElement(QName(service_ns, method))
    for index, value in enumerate(params):
        body.append(encode_value(f"param{index}", value))
    return SoapEnvelope(body, list(headers or []))


def response_envelope(service_ns: str, method: str, result: Any) -> SoapEnvelope:
    """Build an RPC-style response envelope carrying ``result``."""
    body = XmlElement(QName(service_ns, method + "Response"))
    body.append(encode_value("return", result))
    return SoapEnvelope(body)
