"""Deadline-budget propagation and enforcement across SOAP hops.

A nested hop's absolute deadline must never land *after* its enclosing
call's: budget can be spent crossing the wire, never manufactured.  The
client side propagates (inherit when no explicit timeout, clamp when the
explicit timeout would exceed the enclosing budget); the server side
enforces, classifying a violation as the terminal ``Portal.BudgetViolation``.
"""

import pytest

from repro.faults import BudgetViolationError, retryable_codes
from repro.resilience.policy import (
    DEADLINE_HEADER,
    Deadline,
    check_hop_budget,
    current_inbound_deadline,
    pop_inbound_deadline,
    push_inbound_deadline,
    set_hop_listener,
)
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.server import HttpServer
from repro.xmlutil.element import XmlElement

NS = "urn:test:budget"


@pytest.fixture(autouse=True)
def _clean_ambient_state():
    yield
    set_hop_listener(None)
    while current_inbound_deadline() is not None:
        pop_inbound_deadline()


def _deploy(network, host, name, fn, method):
    server = HttpServer(host, network)
    service = SoapService(name, NS)
    service.expose(fn, method)
    return service.mount(server, "/svc")


# -- the primitive ----------------------------------------------------------


def test_no_enclosing_budget_means_no_check(network):
    check_hop_budget(
        Deadline.after(network.clock, 100.0), clock=network.clock
    )  # must not raise


def test_inbound_later_than_enclosing_is_a_violation(network):
    push_inbound_deadline(Deadline.after(network.clock, 10.0))
    try:
        with pytest.raises(BudgetViolationError) as err:
            check_hop_budget(
                Deadline.after(network.clock, 20.0),
                clock=network.clock,
                service="inner",
                method="work",
            )
        assert err.value.code == "Portal.BudgetViolation"
    finally:
        pop_inbound_deadline()


def test_equal_deadline_is_allowed(network):
    """An inherited budget arrives unchanged; wire time already guarantees
    the *remaining* budget strictly decreased."""
    deadline = Deadline.after(network.clock, 10.0)
    push_inbound_deadline(deadline)
    try:
        check_hop_budget(deadline, clock=network.clock)  # must not raise
    finally:
        pop_inbound_deadline()


def test_budget_violation_is_terminal():
    assert BudgetViolationError.retryable is False
    assert retryable_codes()["Portal.BudgetViolation"] is False


# -- end to end over SOAP ----------------------------------------------------


def test_nested_call_inherits_and_never_violates(network):
    """outer(30s) -> inner with no explicit timeout: the inner hop carries
    the inherited (smaller, wire-time-decayed) budget and is accepted."""
    seen = []
    set_hop_listener(seen.append)

    inner_url = _deploy(network, "inner.host", "Inner", lambda: "pong", "ping")

    def relay():
        return SoapClient(network, inner_url, NS, source="outer.host").call(
            "ping"
        )

    outer_url = _deploy(network, "outer.host", "Outer", relay, "relay")
    client = SoapClient(network, outer_url, NS, source="ui")
    assert client.call("relay", timeout=30.0) == "pong"

    hops = [h for h in seen if h["enclosing_at"] is not None]
    assert hops, "the nested hop must report an enclosing budget"
    for hop in hops:
        assert hop["inbound_at"] <= hop["enclosing_at"] + 1e-9


def test_explicit_oversized_timeout_is_clamped(network):
    """outer(5s) -> inner(timeout=500s): the client clamps the nested
    deadline to the enclosing budget instead of manufacturing more."""
    seen = []
    set_hop_listener(seen.append)

    inner_url = _deploy(network, "inner.host", "Inner", lambda: "pong", "ping")

    def relay():
        return SoapClient(network, inner_url, NS, source="outer.host").call(
            "ping", timeout=500.0
        )

    outer_url = _deploy(network, "outer.host", "Outer", relay, "relay")
    SoapClient(network, outer_url, NS, source="ui").call("relay", timeout=5.0)

    nested = [h for h in seen if h["service"] == "Inner"]
    assert nested
    enclosing = [h for h in seen if h["service"] == "Outer"][0]
    for hop in nested:
        assert hop["inbound_at"] <= enclosing["inbound_at"] + 1e-9


def test_forged_budget_is_refused_with_a_classified_fault(network):
    """A nested request whose deadline header claims *more* budget than the
    enclosing call (stale cache, forged header, clock bug) is refused at
    dispatch with the terminal classified fault."""
    inner_url = _deploy(network, "inner.host", "Inner", lambda: "pong", "ping")

    def relay():
        forger = SoapClient(network, inner_url, NS, source="outer.host")
        forged = Deadline.after(network.clock, 10_000.0)
        forger.add_header_provider(lambda m, p: [forged.to_header()])
        return forger.call("ping")

    outer_url = _deploy(network, "outer.host", "Outer", relay, "relay")
    client = SoapClient(network, outer_url, NS, source="ui")
    with pytest.raises(BudgetViolationError) as err:
        client.call("relay", timeout=5.0)
    assert err.value.retryable is False
    assert "Inner" in str(err.value.detail)


def test_nan_deadline_is_ignored_and_never_forwarded(network):
    """``nan`` compares false against every time: it would never expire and
    would slip past every budget check, so it is a malformed deadline."""
    nan = XmlElement(DEADLINE_HEADER, text="nan")
    assert Deadline.from_headers([nan]) is None

    forwarded = []
    inner = SoapService("Inner", NS)
    inner.expose(lambda: "pong", "ping")
    inner.add_interceptor(
        lambda method, params, envelope: forwarded.append(envelope.headers)
    )
    inner_url = inner.mount(HttpServer("inner.host", network), "/svc")

    def relay():
        return SoapClient(network, inner_url, NS, source="outer.host").call(
            "ping"
        )

    outer_url = _deploy(network, "outer.host", "Outer", relay, "relay")
    client = SoapClient(network, outer_url, NS, source="ui")
    client.add_header_provider(lambda method, params: [nan])
    assert client.call("relay") == "pong"
    (headers,) = forwarded
    assert DEADLINE_HEADER not in [entry.tag for entry in headers]
