import sys

import pytest

from repro.faults import AuthenticationError
from repro.security.authservice import (
    AUTH_NAMESPACE,
    AssertionInterceptor,
    ClientSecuritySession,
    deploy_auth_service,
)
from repro.security.kerberos import Kdc
from repro.soap.client import SoapClient
from repro.soap.encoding import decode_value
from repro.soap.message import SoapEnvelope
from repro.soap.server import SoapService
from repro.transport.server import HttpServer
from repro.xmlutil import element
from repro.xmlutil.element import XmlElement


@pytest.fixture
def stack(network):
    kdc = Kdc("REALM", network.clock)
    kdc.add_user("alice", "alpine")
    kdc.add_user("bob", "builder")
    auth, auth_url = deploy_auth_service(network, kdc, assertion_lifetime=300.0)

    server = HttpServer("spp.host", network)
    svc = SoapService("prot", "urn:prot")
    svc.expose(lambda x: f"did {x}", "work")
    interceptor = AssertionInterceptor(
        network, auth_url, spp_host="spp.host", clock=network.clock
    )
    svc.add_interceptor(interceptor)
    url = svc.mount(server)
    return kdc, auth, auth_url, url, interceptor


def _login(network, kdc, auth_url, user="alice", password="alpine"):
    session = ClientSecuritySession(network, kdc, auth_url, ui_host="ui.host")
    session.login(user, password)
    return session


def test_full_atomic_step(network, stack):
    kdc, auth, auth_url, url, _interceptor = stack
    session = _login(network, kdc, auth_url)
    client = session.secure(SoapClient(network, url, "urn:prot", source="ui.host"))
    assert client.work("t") == "did t"
    assert auth.verifications == 1


def test_unauthenticated_call_rejected(network, stack):
    _kdc, _auth, _auth_url, url, _i = stack
    bare = SoapClient(network, url, "urn:prot", source="evil.host")
    with pytest.raises(AuthenticationError):
        bare.work("t")


def test_bad_login(network, stack):
    kdc, _auth, auth_url, _url, _i = stack
    with pytest.raises(AuthenticationError):
        _login(network, kdc, auth_url, "alice", "wrong")
    with pytest.raises(AuthenticationError):
        _login(network, kdc, auth_url, "eve", "x")


def test_expired_assertion_rejected(network, stack):
    kdc, auth, auth_url, _url, _i = stack
    session = _login(network, kdc, auth_url)
    assertion = session.make_assertion()
    network.clock.advance(600.0)
    result = auth.verify(session.session_id, assertion.to_xml().serialize())
    assert not result["valid"]
    assert "expired" in result["reason"]


def test_replayed_assertion_for_other_user_rejected(network, stack):
    kdc, auth, auth_url, _url, _i = stack
    alice = _login(network, kdc, auth_url, "alice", "alpine")
    bob = _login(network, kdc, auth_url, "bob", "builder")
    # bob steals alice's assertion but presents his own session id
    stolen = alice.make_assertion()
    stolen.attributes["session"] = bob.session_id
    result = auth.verify(bob.session_id, stolen.to_xml().serialize())
    assert not result["valid"]


def test_logout_invalidates_session(network, stack):
    kdc, auth, auth_url, url, _i = stack
    session = _login(network, kdc, auth_url)
    client = session.secure(SoapClient(network, url, "urn:prot", source="ui.host"))
    assert client.work("a") == "did a"
    session_id = session.session_id
    assertion_xml = session.make_assertion().to_xml().serialize()
    session.logout()
    result = auth.verify(session_id, assertion_xml)
    assert not result["valid"]
    assert "unknown session" in result["reason"]


def test_verification_cache_skips_repeat_hops(network, stack):
    kdc, auth, auth_url, _url, _interceptor = stack
    # a second SPP with caching enabled
    server = HttpServer("spp2.host", network)
    svc = SoapService("prot2", "urn:prot2")
    svc.expose(lambda: "ok", "ping")
    cached = AssertionInterceptor(
        network, auth_url, spp_host="spp2.host", clock=network.clock, cache=True
    )
    svc.add_interceptor(cached)
    url2 = svc.mount(server)

    session = _login(network, kdc, auth_url)
    client = SoapClient(network, url2, "urn:prot2", source="ui.host")
    assertion = session.make_assertion()
    client.add_header_provider(lambda m, p: [assertion.to_xml()])
    for _ in range(5):
        assert client.ping() == "ok"
    assert cached.verified_calls == 1
    assert cached.cache_hits == 4


def test_active_sessions_counted(network, stack):
    kdc, auth, auth_url, _url, _i = stack
    before = auth.active_sessions()
    session = _login(network, kdc, auth_url)
    assert auth.active_sessions() == before + 1
    session.logout()
    assert auth.active_sessions() == before


# -- the signed call's parses and wire form ----------------------------------


@pytest.fixture
def parsed(monkeypatch):
    """The text of every ``parse_xml`` call, wherever a module imported it."""
    texts: list[str] = []
    original = element.parse_xml

    def counting(text):
        texts.append(text)
        return original(text)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            vars(module).get("parse_xml") is original
        ):
            monkeypatch.setattr(module, "parse_xml", counting)
    return texts


@pytest.fixture
def sent(network, monkeypatch):
    """Every request put on the wire."""
    requests = []
    send = network.send

    def recording(request, **kwargs):
        requests.append(request)
        return send(request, **kwargs)

    monkeypatch.setattr(network, "send", recording)
    return requests


def test_signed_call_parses_each_message_once(network, stack, parsed):
    kdc, _auth, auth_url, url, _interceptor = stack
    session = _login(network, kdc, auth_url)
    client = session.secure(SoapClient(network, url, "urn:prot", source="ui.host"))
    parsed.clear()
    assert client.work("t") == "did t"
    # the SPP's request, the verify request, the verify response and the
    # SPP's response; the assertion is parsed only with its envelope
    assert len(parsed) == 4


def test_verify_request_carries_the_assertion_element(network, stack, sent):
    kdc, _auth, auth_url, url, _interceptor = stack
    session = _login(network, kdc, auth_url)
    client = session.secure(SoapClient(network, url, "urn:prot", source="ui.host"))
    sent.clear()
    client.work("t")
    verify = [r for r in sent if r.url.host == "auth.gridportal.org"]
    assert len(verify) == 1
    assert "&lt;" not in verify[0].body
    call = SoapEnvelope.parse(verify[0].body).body
    assert call.tag.local == "verify"
    literal = decode_value(call.children[1])
    assert isinstance(literal, XmlElement)
    assert literal.tag.local == "Assertion"


def _tamper_subject(assertion):
    assertion.subject = "mallory"


def _tamper_signature(assertion):
    assertion.signature = bytes(b ^ 1 for b in assertion.signature)


@pytest.mark.parametrize(
    "tamper", [_tamper_subject, _tamper_signature], ids=["subject", "signature"]
)
def test_tampered_assertion_rejected_on_the_literal_path(network, stack, tamper):
    kdc, auth, auth_url, url, interceptor = stack
    session = _login(network, kdc, auth_url)
    client = SoapClient(network, url, "urn:prot", source="ui.host")

    def tampered(method, params):
        assertion = session.make_assertion()
        tamper(assertion)
        return [assertion.to_xml()]

    client.add_header_provider(tampered)
    with pytest.raises(AuthenticationError, match="rejected"):
        client.work("t")
    assert auth.verifications == 1
    assert interceptor.verified_calls == 1


def test_verify_still_accepts_a_string(network, stack):
    kdc, auth, auth_url, _url, _i = stack
    session = _login(network, kdc, auth_url)
    text = session.make_assertion().to_xml().serialize()
    assert auth.verify(session.session_id, text)["valid"]
    remote = SoapClient(network, auth_url, AUTH_NAMESPACE, source="spp.host")
    result = remote.call("verify", session.session_id, text)
    assert result["valid"] and result["subject"] == "alice"


def test_literal_that_is_not_an_assertion_is_invalid(network, stack):
    kdc, _auth, auth_url, _url, _i = stack
    session = _login(network, kdc, auth_url)
    remote = SoapClient(network, auth_url, AUTH_NAMESPACE, source="spp.host")
    result = remote.call(
        "verify", session.session_id, XmlElement("{urn:other}Ticket", text="x")
    )
    assert result["valid"] is False
    assert "bad assertion" in result["reason"]
