"""Trace context has one wire form: the ``Traceparent`` HTTP header.

Tracing a request must not change what it carries — the SOAP envelope and
the GRAM JSON payload are byte-identical traced or not — so the only thing
an installed observability bundle adds to the wire is that one header.
"""

import json

import pytest

from repro.grid.gram import GramClient, rsl_for
from repro.grid.jobs import JobSpec
from repro.grid.resources import build_testbed
from repro.observability.context import TRACEPARENT
from repro.observability.runtime import Observability
from repro.soap.client import SoapClient

from tests.observability.conftest import ECHO_NAMESPACE

IDENTITY = "/O=G/CN=portal"


@pytest.fixture
def wire(network, monkeypatch):
    """Every request the network carries, in send order."""
    sent = []
    send = network.send

    def recording_send(request, **kwargs):
        sent.append(request)
        return send(request, **kwargs)

    monkeypatch.setattr(network, "send", recording_send)
    return sent


@pytest.fixture
def sampled(network):
    bundle = Observability.install(network, seed=7, sampling=True)
    yield bundle
    Observability.uninstall(network)


def test_tracing_adds_only_the_traceparent_header(
    network, echo_stack, sampled, wire
):
    _service, traced = echo_stack
    plain = SoapClient(
        network, traced.endpoint, ECHO_NAMESPACE, source="portal", traced=False
    )
    for text in ("first", "second"):
        traced.shout(text)
        plain.shout(text)
    traced_requests, plain_requests = wire[0::2], wire[1::2]
    assert len(traced_requests) == len(plain_requests) == 2
    for with_trace, without in zip(traced_requests, plain_requests):
        assert with_trace.body == without.body
        headers = dict(with_trace.headers)
        assert headers.pop(TRACEPARENT).startswith("00-")
        assert headers == without.headers


def test_gram_trace_rides_the_traceparent_header(network, ca, obs, wire):
    testbed = build_testbed(network, ca)
    proxy = ca.issue_credential(IDENTITY, lifetime=10**6, now=0.0).sign_proxy(
        lifetime=10**5, now=0.0
    )
    testbed["blue.sdsc.edu"].gatekeeper.add_gridmap_entry(IDENTITY, "portal")
    client = GramClient(network, proxy, source="globusrun.sdsc.edu")
    client.submit("blue.sdsc.edu", rsl_for(JobSpec(executable="echo")))

    (request,) = [r for r in wire if r.url.path == "/jobmanager"]
    assert "trace" not in json.loads(request.body)
    spans = {s["name"]: s for s in obs.collector.spans()}
    gram_hop, gatekeeper = spans["gram.submit"], spans["gatekeeper.submit"]
    assert request.headers[TRACEPARENT] == (
        f"00-{gram_hop['trace_id']}-{gram_hop['span_id']}-01"
    )
    assert gatekeeper["trace_id"] == gram_hop["trace_id"]
    assert gatekeeper["parent_id"] == gram_hop["span_id"]
