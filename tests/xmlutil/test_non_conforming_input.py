"""Documents no conforming XML parser reads, and what becomes of them.

Each is refused by ``parse_xml`` with an :class:`XmlParseError` whose
``pos`` lies inside the offending construct, and a SOAP service answers
each with a ``Client`` fault.  Only the error class and the offset are
asserted: the message text is the linked libexpat's, which differs
between builds.
"""

import pytest

from repro.soap.message import SoapEnvelope, SoapFault
from repro.soap.server import SoapService
from repro.transport.http import HttpRequest, parse_url
from repro.transport.server import HttpServer
from repro.xmlutil.element import MAX_DEPTH, XmlParseError, parse_xml

#: nine levels of ten references each: 10**9 expansions of "lol" if read
_BOMB = (
    '<!DOCTYPE lolz [<!ENTITY l0 "lol">'
    + "".join(
        f'<!ENTITY l{level} "{f"&l{level - 1};" * 10}">'
        for level in range(1, 10)
    )
    + "]><lolz>&l9;</lolz>"
)
_EXTERNAL = (
    '<!DOCTYPE r [<!ENTITY x SYSTEM "http://attacker.example/x">]><r>&x;</r>'
)
_DEEP = "<a>" * (MAX_DEPTH + 1) + "</a>" * (MAX_DEPTH + 1)


def _at(document: str, construct: str) -> tuple:
    """(document, start, end) of the *construct* it holds."""
    start = document.index(construct)
    return document, start, start + len(construct)


#: (document, start, end): the offending construct is document[start:end]
CASES = [
    # after a two-byte character, so the offset counts characters
    pytest.param(*_at("<a>\u00e9\x1b</a>", "\x1b"), id="c0-control"),
    pytest.param(*_at("<a>x\x00y</a>", "\x00"), id="nul"),
    pytest.param(*_at("<a>x\ufffey</a>", "\ufffe"), id="u+fffe"),
    pytest.param(*_at("<a>x\ud800y</a>", "\ud800"), id="lone-surrogate"),
    pytest.param(*_at("<a>x]]>y</a>", "]]>"), id="cdata-end-in-text"),
    pytest.param(*_at('<a x="1" x="2"/>', '<a x="1" x="2"/>'),
                 id="duplicate-attribute"),
    pytest.param(*_at(
        '<a xmlns:p="urn:p" xmlns:q="urn:p" p:x="1" q:x="2"/>',
        '<a xmlns:p="urn:p" xmlns:q="urn:p" p:x="1" q:x="2"/>',
    ), id="duplicate-expanded-attribute"),
    pytest.param(*_at('<a xmlns:p=""/>', '<a xmlns:p=""/>'),
                 id="empty-prefix-binding"),
    pytest.param(*_at("<a>&#X41;</a>", "&#X41;"), id="upper-case-hex-x"),
    pytest.param(*_at(_BOMB, _BOMB[:_BOMB.index("]>") + 2]), id="entity-bomb"),
    pytest.param(*_at(_EXTERNAL, _EXTERNAL[:_EXTERNAL.index("]>") + 2]),
                 id="external-entity"),
    pytest.param(*_at("<!DOCTYPE html><root/>", "<!DOCTYPE html>"),
                 id="doctype"),
    pytest.param(_DEEP, 3 * MAX_DEPTH, 3 * (MAX_DEPTH + 1), id="depth-257"),
    pytest.param(*_at('<a>\u00e9<p:b x="1"/></a>', '<p:b x="1"/>'),
                 id="unbound-prefix"),
]


@pytest.mark.parametrize("document, start, end", CASES)
def test_parse_refuses_non_conforming_input(document, start, end):
    with pytest.raises(XmlParseError) as caught:
        parse_xml(document)
    assert start <= caught.value.pos < end


@pytest.mark.parametrize("document, start, end", CASES)
def test_soap_service_answers_a_client_fault(network, document, start, end):
    service = SoapService("echo", "urn:echo")
    service.expose(lambda text: text, "echo")
    url = service.mount(HttpServer("echo.example", network))
    response = service.handle_http(
        HttpRequest("POST", parse_url(url), {}, document)
    )
    assert response.status == 500
    fault = SoapFault.from_xml(SoapEnvelope.parse(response.body).body)
    assert fault.faultcode == "Client"
    assert fault.faultstring.startswith("malformed SOAP request")
