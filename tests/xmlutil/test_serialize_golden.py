"""Byte goldens for the serializer: a fixed corpus of the documents the
portal sends, each pinned by its sha256.

``wire_bytes_per_op`` sees only how many bytes a message takes; these pin
which bytes, so a change to the serializer that renumbers prefixes, moves
a declaration or escapes a character differently fails here even when the
size stays the same.  Every document is built from fixed inputs (no clock,
no counter, no seed), so it is the same on every run and host.
"""

from __future__ import annotations

import base64
import hashlib

import pytest

from repro.faults import ResourceExhaustedError
from repro.security.saml import SamlAssertion
from repro.services.datamgmt import SRBWS_NAMESPACE, make_request_xml
from repro.services.jobsubmit import GLOBUSRUN_NAMESPACE
from repro.soap.encoding import encode_value
from repro.soap.message import (
    SoapEnvelope,
    SoapFault,
    request_envelope,
    response_envelope,
)
from repro.soap.server import SoapService
from repro.wsdl.model import generate_wsdl
from repro.xmlutil.element import XML_NS, XmlElement
from repro.xmlutil.qname import QName

ECHO_NS = "urn:bench:echo"
SPP_NS = "urn:bench:protected"
#: a job description as the echo and signed calls carry it: ``&`` and
#: quotes, but not enough markup to travel as CDATA
RSL = (
    "&(executable=/usr/local/bin/povray)"
    '(arguments="+i scene7.pov" "+o frame42.png" "+w 800" "+h 600")'
    "(directory=/home/gridsphere/renders/job-42)(count=16)(queue=normal)"
)
#: ls and cat results, a cat value dense with markup (so it travels as CDATA)
LISTING = ["/home/portal/text/a.txt", "/home/portal/text/b & c.txt"]
MARKUP = "<job id='7'><arg>a &amp; b</arg><arg>&lt;x&gt;</arg></job>"


def _xml_call_result() -> str:
    """An ``xml_call`` result document, shaped as the SRB service writes it."""
    results = XmlElement("srbResults")
    ls = results.child("result").set("command", "ls").set("status", "ok")
    for path in LISTING:
        ls.child("item", text=path)
    cat = results.child("result").set("command", "cat").set("status", "ok")
    cat.child("value", text=MARKUP)
    missing = results.child("result").set("command", "cat")
    missing.set("status", "error")
    missing.child("error", text="Portal.ResourceNotFound: no data object 'x'")
    return results.serialize(declaration=True)


def _signed_request() -> str:
    assertion = SamlAssertion(
        issuer="ui.bench",
        subject="alice",
        method=SamlAssertion.METHOD_KERBEROS,
        auth_instant=12.5,
        not_before=12.5,
        not_on_or_after=312.5,
        assertion_id="assert-00000001",
        attributes={"session": "session-0001", "role": "user"},
    ).sign(b"k" * 32)
    return request_envelope(
        SPP_NS, "echo", [RSL], headers=[assertion.to_xml()]
    ).serialize()


def _wsdl() -> str:
    service = SoapService("Echo", ECHO_NS)

    def shout(text: str, times: int) -> str:
        """Upper-case *text* and repeat it (a <demo> & "test")."""
        return text.upper() * times

    service.expose(shout)
    service.expose(lambda: "pong", name="ping")
    return generate_wsdl(service, "http://echo.bench.org/echo").serialize()


def _miscellany() -> str:
    """One element with every escape and name rule the serializer has."""
    node = XmlElement(
        "note",
        {QName(XML_NS, "lang"): "en", "ws": "a\tb\nc\rd", "q": 'say "hi" & <bye>'},
        text="line one\rline two & <three>",
    )
    node.append(encode_value(QName("urn:x", "record"), {
        "key with space": "plain",
        "_xABCD": "an underscore-x key",
        "9lives": 9,
        "": None,
        "markup": MARKUP * 2,
    }))
    return node.serialize()


CORPUS = {
    "echo-request": lambda: request_envelope(ECHO_NS, "shout", [RSL]).serialize(),
    "echo-response": lambda: response_envelope(
        ECHO_NS, "shout", RSL.upper()).serialize(),
    "srb-put-request": lambda: request_envelope(
        SRBWS_NAMESPACE, "put",
        ["/home/portal/f.txt", base64.b64encode(b"hello, grid").decode()],
    ).serialize(),
    "srb-xml-call-request": lambda: request_envelope(
        SRBWS_NAMESPACE, "xml_call",
        [make_request_xml([("ls", ["/home/portal/text"]),
                           ("cat", ["/home/portal/text/a.txt"])])],
    ).serialize(),
    "srb-xml-call-result": lambda: response_envelope(
        SRBWS_NAMESPACE, "xml_call", _xml_call_result()).serialize(),
    "globusrun-run-request": lambda: request_envelope(
        GLOBUSRUN_NAMESPACE, "run",
        ["modi4.iu.edu", "/bin/echo", "hello", 1, "", 3600],
    ).serialize(),
    "fault-with-detail": lambda: SoapEnvelope(SoapFault.from_portal_error(
        ResourceExhaustedError('disk "hpss" < 5% & full', {"resource": "hpss"}),
        actor="srb-ws",
    ).to_xml()).serialize(),
    "signed-request": _signed_request,
    "wsdl": _wsdl,
    "miscellany": _miscellany,
}

#: name -> (UTF-8 length, sha256) of each document of the corpus
GOLDEN = {
    "echo-request": (
        453, "219aeeb173df54f1a45a596ec304bd853bf44e1446825cd9566be8e60214443d"),
    "echo-response": (
        469, "1dff48bb699c2125b46faa164194cb30f9d4c2f61f61cd43bcee8181b77a60bb"),
    "srb-put-request": (
        364, "236cb0acc87da9011a53ab73e2d9161ddd0d3e70d39f402496093df6f71f0455"),
    "srb-xml-call-request": (
        497, "72685316878683a410081e76501f0fc865a814a2a97b748864f7544852faab3f"),
    "srb-xml-call-result": (
        782, "d7a54c322b9668e499dcc08885e474c0759a434abe486bf38cb873bc1970e025"),
    "globusrun-run-request": (
        505, "63ec1e3ecb6558e4ee75081980cec0f4964acb25ac1015f32734fc485f7ab099"),
    "fault-with-detail": (
        484, "1053168c76d459707949cd069e8008087b9b8bedfd76648230ff9904c6e737d2"),
    "signed-request": (
        1218, "c906b31307ce67f843f65d8c10890de352837b219c4703622130a979bfed33a2"),
    "wsdl": (
        1621, "2b6163a68c42a98f30cb01afb2c383b938f0965622103d725d807f0924afda78"),
    "miscellany": (
        643, "60b6178dfd8c23b0f373ae8d51c560fa7331778268907ff50a8c8e9a04e2dacd"),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_serialized_bytes_match_the_golden(name):
    wire = CORPUS[name]().encode("utf-8")
    assert (len(wire), hashlib.sha256(wire).hexdigest()) == GOLDEN[name]


def test_corpus_covers_the_escapes_and_wire_forms():
    # the goldens pin these forms; check that the corpus still holds them
    wire = {name: build() for name, build in CORPUS.items()}
    misc = wire["miscellany"]
    assert 'xml:lang="en"' in misc and "XML/1998/namespace" not in misc
    assert 'ws="a&#9;b&#10;c&#13;d"' in misc
    assert "line one&#13;line two &amp; &lt;three&gt;" in misc
    assert "<![CDATA[" in misc and "key_x0020_with_x0020_space" in misc
    assert "_x005F_xABCD" in misc
    assert "<![CDATA[" in wire["srb-xml-call-result"]
    assert "<![CDATA[" not in wire["echo-request"]
    assert wire["wsdl"].startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert "\n  <" in wire["wsdl"]
    assert len(wire["globusrun-run-request"].encode("utf-8")) == 505
