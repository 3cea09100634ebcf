import pytest

from repro.faults import (
    AuthenticationError,
    InvalidRequestError,
    PortalError,
    ResourceNotFoundError,
    ServiceUnavailableError,
)
from repro.soap.client import SoapClient
from repro.soap.encoding import XSI_NS
from repro.soap.message import (
    SoapEnvelope,
    SoapFault,
    SoapFaultError,
    SoapResponseError,
    request_envelope,
)
from repro.soap.server import SoapService
from repro.transport.http import HttpRequest, parse_url
from repro.transport.network import ServiceCrash, TransportError
from repro.transport.server import HttpServer
from repro.xmlutil.element import XmlElement


@pytest.fixture
def service(network):
    server = HttpServer("svc.example", network)
    svc = SoapService("calc", "urn:calc")

    def add(a, b):
        """Add two numbers."""
        return a + b

    def fail_portal(path):
        raise ResourceNotFoundError("nope", {"path": path})

    def fail_random():
        raise ValueError("unexpected internal thing")

    svc.expose(add)
    svc.expose(fail_portal)
    svc.expose(fail_random)
    url = svc.mount(server)
    return svc, url


@pytest.fixture
def client(network, service):
    _svc, url = service
    return SoapClient(network, url, "urn:calc", source="client.example")


def test_rpc_roundtrip(client, service):
    assert client.call("add", 2, 3) == 5
    assert client.add(10, -4) == 6  # attribute-magic stub
    assert service[0].calls_served == 2


def test_unknown_method_is_invalid_request(client):
    with pytest.raises(InvalidRequestError):
        client.call("subtract", 1, 2)


def test_portal_error_reraised_with_type_and_detail(client):
    with pytest.raises(ResourceNotFoundError) as exc_info:
        client.fail_portal("/x")
    assert exc_info.value.detail == {"path": "/x"}


def test_unhandled_exception_becomes_generic_fault(client, service):
    with pytest.raises(SoapFaultError) as exc_info:
        client.fail_random()
    assert "ValueError" in str(exc_info.value)
    assert service[0].faults_returned >= 1


def test_transport_failure_in_a_handler_is_a_retryable_unavailable_fault(network):
    svc = SoapService("relay", "urn:relay")

    def relay():
        raise TransportError("host 'backend.example' is down")

    def die():
        raise ServiceCrash("process died")

    svc.expose(relay)
    svc.expose(die)
    url = svc.mount(HttpServer("relay.example", network))
    client = SoapClient(network, url, "urn:relay", source="client.example")
    with pytest.raises(ServiceUnavailableError) as info:
        client.call("relay")
    assert info.value.code == "Portal.ServiceUnavailable"
    assert info.value.retryable
    assert info.value.detail == {"error": "TransportError"}
    assert "backend.example" in info.value.message
    fault = SoapFault.from_xml(client.last_response.body)
    assert fault.detail["code"] == "Portal.ServiceUnavailable"
    assert fault.faultactor == "relay"
    # a process death is still no fault at all: the connection drops
    with pytest.raises(TransportError) as died:
        client.call("die")
    assert not isinstance(died.value, PortalError)


def test_header_provider_attaches_headers(network, service):
    svc, url = service
    seen = []

    def interceptor(method, params, envelope: SoapEnvelope):
        header = envelope.header("Token")
        seen.append(header.text if header is not None else None)

    svc.add_interceptor(interceptor)
    client = SoapClient(network, url, "urn:calc")
    client.add_header_provider(
        lambda method, params: [XmlElement("Token", text=f"tok-{method}")]
    )
    client.add(1, 1)
    assert seen == ["tok-add"]


def test_interceptor_rejection_blocks_dispatch(network, service):
    svc, url = service

    def deny(method, params, envelope):
        raise AuthenticationError("no token")

    svc.add_interceptor(deny)
    served_before = svc.calls_served
    client = SoapClient(network, url, "urn:calc")
    with pytest.raises(AuthenticationError):
        client.add(1, 1)
    assert svc.calls_served == served_before


def test_expose_object_bulk(network):
    class Impl:
        def visible(self):
            return "v"

        def _hidden(self):  # pragma: no cover - must not be exposed
            return "h"

    svc = SoapService("bulk", "urn:bulk")
    svc.expose_object(Impl())
    assert "visible" in svc.methods
    assert "_hidden" not in svc.methods


def test_malformed_request_returns_client_fault(network, service):
    _svc, url = service
    from repro.transport.client import HttpClient

    response = HttpClient(network, "c").post(url, "this is not xml")
    assert response.status == 500
    assert "malformed SOAP request" in response.body


@pytest.mark.parametrize(
    "body",
    [
        "<x>" * 600 + "</x>" * 600,
        "<x>&#99999999999999999999;</x>",
    ],
    ids=["600-deep", "huge-char-ref"],
)
def test_hostile_xml_gets_a_client_fault_envelope(network, service, body):
    _svc, url = service
    from repro.transport.client import HttpClient

    response = HttpClient(network, "c").post(url, body)
    assert response.status == 500
    assert response.headers["Content-Type"] == "text/xml"
    fault = SoapFault.from_xml(SoapEnvelope.parse(response.body).body)
    assert fault.faultcode == "Client"
    assert fault.faultstring.startswith("malformed SOAP request")


@pytest.mark.parametrize(
    "result", [object(), {1: 2}], ids=["object", "non-string-key"]
)
def test_unencodable_result_is_a_fault_not_an_escape(network, result):
    svc = SoapService("odd", "urn:odd")
    svc.expose(lambda: result, name="give")
    url = svc.mount(HttpServer("odd.example", network))
    client = SoapClient(network, url, "urn:odd")
    with pytest.raises(PortalError) as info:
        client.call("give")
    # a classified fault the provider sent, not an unreadable response
    assert not isinstance(info.value, SoapResponseError)
    assert svc.faults_returned == 1
    assert client.last_response.is_fault


def test_any_failure_in_dispatch_is_a_server_fault_envelope(service, monkeypatch):
    svc, url = service

    def broken(envelope, *, parent=None):
        raise RuntimeError("dispatch machinery broke")

    monkeypatch.setattr(svc, "dispatch", broken)
    request = HttpRequest(
        "POST", parse_url(url), {},
        request_envelope("urn:calc", "add", [1, 2]).serialize(),
    )
    response = svc.handle_http(request)
    assert response.status == 500
    assert response.headers["Content-Type"] == "text/xml"
    fault = SoapFault.from_xml(SoapEnvelope.parse(response.body).body)
    assert fault.faultcode == "Server"
    assert "RuntimeError: dispatch machinery broke" in fault.faultstring


@pytest.mark.parametrize("xsd_type, text", [
    ("xsd:int", "abc"),
    ("xsd:double", "x"),
    ("xsd:int", "9" * 5000),
    ("xsd:base64Binary", "!!!"),
    ("xsd:base64Binary", "aGk=!!"),
    ("xsd:base64Binary", "aGk=\u00e9"),
    ("xsd:boolean", "yes"),
    ("xsd:boolean", "TRUE"),
    ("xsd:boolean", "abc"),
    ("xsd:int", "1_000"),
    ("xsd:int", "\u0661\u0662"),
    ("xsd:double", "1_0"),
    ("xsd:double", "infinity"),
    ("xsd:double", "\u0661.5"),
], ids=["int", "double", "huge-int", "base64", "base64-tail", "non-ascii",
        "boolean-yes", "boolean-upper", "boolean-abc", "int-underscore",
        "int-arabic-indic", "double-underscore", "double-infinity",
        "double-arabic-indic"])
def test_mistyped_parameter_gets_an_encoding_fault(network, xsd_type, text):
    svc = SoapService("echo", "urn:echo")
    svc.expose(lambda x: x, "echo")
    url = svc.mount(HttpServer("echo.example", network))
    envelope = request_envelope("urn:echo", "echo", [""])
    param = envelope.body.children[0]
    param.set(f"{{{XSI_NS}}}type", xsd_type)
    param.set_text(text)
    response = svc.handle_http(
        HttpRequest("POST", parse_url(url), {}, envelope.serialize())
    )
    assert response.status == 500
    fault = SoapFault.from_xml(SoapEnvelope.parse(response.body).body)
    assert fault.detail.get("code") == "Portal.Encoding"


def test_get_rejected(network, service):
    _svc, url = service
    from repro.transport.client import HttpClient

    assert HttpClient(network, "c").get(url).status == 405


@pytest.mark.parametrize(
    "method, args", [("echo", ["a\ud800b"]), ("give", [])],
    ids=["in-request", "in-response"],
)
def test_lone_surrogate_is_a_result_or_a_portal_error(network, method, args):
    # sizing a body must not fail in the transport: whether a lone
    # surrogate is well-formed is the receiving parser's to decide
    svc = SoapService("odd", "urn:odd")
    svc.expose(lambda x: x, "echo")
    svc.expose(lambda: "a\ud800b", "give")
    url = svc.mount(HttpServer("odd.example", network))
    client = SoapClient(network, url, "urn:odd")
    try:
        result = client.call(method, *args)
    except PortalError:
        return
    assert result == "a\ud800b"
