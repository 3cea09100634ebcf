"""The client's fault boundary: whatever a provider sends back, a call
returns a result or raises a classified :class:`PortalError`.

A response that is not a readable SOAP message — a body that does not
parse, an XML document that is not an envelope, a return value that does
not decode — raises :class:`SoapResponseError`, retryable exactly when the
HTTP status was a 5xx.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import PortalError
from repro.resilience.policy import is_retryable
from repro.soap.client import SoapClient
from repro.soap.message import SoapResponseError, response_envelope
from repro.transport.http import HttpResponse
from repro.transport.network import VirtualNetwork
from repro.xmlutil.element import XmlElement

HOST = "odd.example"
NAMESPACE = "urn:odd"


def _client_answered_by(status: int, body: str) -> SoapClient:
    """A client whose every request gets *status* and *body* back."""
    network = VirtualNetwork()
    network.register(
        HOST, lambda request: HttpResponse(status, {"Content-Type": "text/xml"}, body)
    )
    return SoapClient(network, f"http://{HOST}/soap", NAMESPACE)


def _response(value) -> str:
    return response_envelope(NAMESPACE, "get", value).serialize()


@pytest.mark.parametrize(
    "status, body",
    [
        (200, "not xml at all"),
        (200, "<html><body>oops</body></html>"),
        (200, _response("x").replace("Body", "Bodie")),
        (200, _response(b"\x00\x01").replace("AAE=", "A===")),
        (200, _response(5).replace(">5<", ">five<")),
        (404, "no route"),
        (500, "Internal Server Error"),
        (503, "<unterminated"),
    ],
    ids=[
        "text", "not-an-envelope", "no-body", "bad-base64", "bad-int",
        "404-text", "500-text", "503-unparseable",
    ],
)
def test_unreadable_responses_are_classified(status, body):
    client = _client_answered_by(status, body)
    with pytest.raises(SoapResponseError) as info:
        client.call("get")
    assert info.value.code == "Portal.BadResponse"
    assert info.value.detail == {"status": str(status)}
    assert is_retryable(info.value) is (500 <= status <= 599)


def test_a_readable_response_still_decodes():
    assert _client_answered_by(200, _response([1, "two"])).call("get") == [1, "two"]


VALUES = [
    "plain text", 42, 2.5, True, None, b"\x00\xffbytes", [1, [2, "three"]],
    {"key": "value", "n": 7}, XmlElement("job", {"id": "j1"}, text="run"),
]
MUTATION_CHARS = st.one_of(
    st.sampled_from(list("<>&;\"'/=!?[]#x\x01 \n") + ["&#", "<!--", "]]>", "&amp;"]),
    st.characters(codec="utf-8"),
)


@st.composite
def mutated_responses(draw):
    """A valid response envelope, mutated: cut, inserted into, overwritten."""
    body = _response(draw(st.sampled_from(VALUES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(body)))
        action = draw(st.sampled_from(["cut", "insert", "overwrite", "truncate"]))
        if action == "cut":
            body = body[:at] + body[at + draw(st.integers(1, 12)):]
        elif action == "insert":
            body = body[:at] + draw(MUTATION_CHARS) + body[at:]
        elif action == "overwrite":
            body = body[:at] + draw(MUTATION_CHARS) + body[at + 1:]
        else:
            body = body[:at]
    status = draw(st.sampled_from([200, 200, 200, 404, 500, 503]))
    return status, body


@given(mutated_responses())
@settings(max_examples=400, deadline=None)
def test_every_response_is_a_result_or_a_classified_fault(response):
    status, body = response
    client = _client_answered_by(status, body)
    try:
        client.call("get")
    except SoapResponseError as err:
        assert err.retryable is (500 <= status <= 599)
    except PortalError:
        pass  # a fault the (mutated) envelope still carried
