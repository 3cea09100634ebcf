import pytest

from repro.faults import PortalError, ResourceExhaustedError
from repro.services.jobsubmit import GLOBUSRUN_NAMESPACE
from repro.soap.encoding import XSI_NS
from repro.soap.message import (
    SoapEnvelope,
    SoapFault,
    request_envelope,
    response_envelope,
)
from repro.xmlutil.element import XmlElement


def test_envelope_roundtrip_with_headers():
    body = XmlElement("call", text="payload")
    header = XmlElement("Assertion", {"id": "a1"})
    envelope = SoapEnvelope(body, [header])
    parsed = SoapEnvelope.parse(envelope.serialize())
    assert parsed.body == body
    assert parsed.header("Assertion").get("id") == "a1"
    assert parsed.header("Missing") is None
    assert not parsed.is_fault


def test_multi_argument_request_declares_xsi_once():
    # a portal-shell ``submit`` line's call: each of the six arguments
    # names xsi:type, and one declaration on the Envelope serves them all
    wire = request_envelope(
        GLOBUSRUN_NAMESPACE, "run",
        ["modi4.iu.edu", "/bin/echo", "hello", 1, "", 3600],
    ).serialize()
    assert wire.count(XSI_NS) == 1
    # 775 bytes when each argument declared xsi itself (54 bytes apiece)
    assert len(wire.encode("utf-8")) == 505


def test_envelope_requires_single_body_element():
    with pytest.raises(ValueError):
        SoapEnvelope.parse("<notanenvelope/>")
    bare = (
        '<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
        "<e:Body/></e:Envelope>"
    )
    with pytest.raises(ValueError):
        SoapEnvelope.parse(bare)


def test_fault_roundtrip():
    fault = SoapFault("Client", "you messed up", "actor-x", {"k": "v"})
    parsed = SoapFault.from_xml(
        SoapEnvelope.parse(SoapEnvelope(fault.to_xml()).serialize()).body
    )
    assert parsed == fault


def test_portal_error_travels_through_fault():
    err = ResourceExhaustedError("disk was full", {"resource": "hpss"})
    fault = SoapFault.from_portal_error(err, actor="srb-ws")
    reconstructed = fault.to_portal_error()
    assert isinstance(reconstructed, ResourceExhaustedError)
    assert reconstructed.message == "disk was full"
    assert reconstructed.detail == {"resource": "hpss"}


def test_generic_fault_has_no_portal_error():
    assert SoapFault("Server", "boom").to_portal_error() is None


def test_unknown_code_falls_back_to_base_error():
    err = PortalError.from_detail({"code": "Portal.Novel", "message": "m"})
    assert type(err) is PortalError
    assert err.message == "m"


def test_request_response_envelopes():
    req = request_envelope("urn:s", "doIt", ["x", 2])
    assert req.body.tag.local == "doIt"
    assert len(req.body.children) == 2
    resp = response_envelope("urn:s", "doIt", {"ok": True})
    assert resp.body.tag.local == "doItResponse"
    assert resp.body.find("return") is not None
