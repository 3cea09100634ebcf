"""End-to-end admission control through the SOAP stack.

ServerBusy faults must survive the wire with their retryAfter hint, the
client retry loop must honour that hint instead of its blind exponential
backoff, sheds must land in the resilience stream (and on spans when the
observability layer is bridged), and deadline sheds must carry the
modelled queue wait so callers can tell overload from a tight budget.
"""

import pytest

from repro.faults import DeadlineExceededError, ServerBusyError
from repro.loadmgmt import AdmissionController, LaneConfig
from repro.resilience import events
from repro.resilience.events import ResilienceLog
from repro.resilience.policy import RetryPolicy
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.http import HttpRequest, parse_url
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

ECHO_NAMESPACE = "urn:test:echo"


def _stack(network=None, *, log=None, **admission_kwargs):
    network = network or VirtualNetwork()
    admission_kwargs.setdefault("capacity", 1.0)
    controller = AdmissionController(network.clock, **admission_kwargs)
    service = SoapService("Echo", ECHO_NAMESPACE)
    service.expose(lambda text: text.upper(), name="shout")
    service.enable_admission(controller, log)
    url = service.mount(HttpServer("echo.test.org", network), "/echo")
    return network, service, controller, url


def test_server_busy_fault_round_trips_with_its_hint():
    network, _service, _controller, url = _stack(max_wait=1.0)
    client = SoapClient(network, url, ECHO_NAMESPACE, principal="alice")
    assert client.call("shout", "hi") == "HI"
    # saturate the 1/s modelled capacity within one virtual instant
    with pytest.raises(ServerBusyError) as excinfo:
        for _ in range(10):
            client.call("shout", "hi")
    err = excinfo.value
    assert err.retryable
    assert err.retry_after is not None and err.retry_after > 0
    assert err.detail["principal"] == "alice"


def test_client_honours_the_retry_after_hint():
    log = ResilienceLog()
    network, _service, controller, url = _stack(max_wait=0.5, log=log)
    # a policy whose blind backoff (50 ms) is far below the server's hint:
    # only honouring retryAfter lets the retried attempt land
    client = SoapClient(
        network, url, ECHO_NAMESPACE,
        principal="alice",
        retry_policy=RetryPolicy(max_attempts=5, base_delay=0.05, jitter=0.0),
        resilience_log=log,
    )
    for _ in range(5):
        assert client.call("shout", "hi") == "HI"
    assert controller.shed > 0
    assert client.busy_backoffs > 0
    retry = next(
        e for e in log.events
        if e.code == events.RETRY and "retryAfter" in e.detail
    )
    # the backoff actually used IS the server's hint
    assert retry.detail["backoff"] == retry.detail["retryAfter"]
    assert float(retry.detail["retryAfter"]) > 0.05


def test_principals_map_to_fair_queue_lanes():
    network, _service, controller, url = _stack(
        capacity=10.0, max_wait=2.0,
        lanes={"alice": LaneConfig(weight=3.0), "bob": LaneConfig(weight=1.0)},
    )
    alice = SoapClient(network, url, ECHO_NAMESPACE, principal="alice")
    bob = SoapClient(network, url, ECHO_NAMESPACE, principal="bob")
    anon = SoapClient(network, url, ECHO_NAMESPACE)
    for client in (alice, bob, anon):
        try:
            client.call("shout", "x")
        except ServerBusyError:
            pass
    stats = controller.lane_stats
    assert stats["alice"].arrived == 1
    assert stats["bob"].arrived == 1
    assert stats["anonymous"].arrived == 1


def test_busy_events_reach_log_and_spans_when_bridged():
    from repro.observability import Observability

    network = VirtualNetwork()
    obs = Observability.install(network)
    log = ResilienceLog()
    obs.observe_log(log)
    network, _service, _controller, url = _stack(network, max_wait=1.0, log=log)
    client = SoapClient(network, url, ECHO_NAMESPACE, principal="alice")
    with pytest.raises(ServerBusyError):
        for _ in range(10):
            client.call("shout", "hi")
    busy = [e for e in log.events if e.code == events.BUSY]
    assert busy, "no Load.Busy event recorded"
    assert obs.metrics.events.get(events.BUSY, 0) == len(busy)
    annotated = [
        span_event
        for span in obs.collector.spans()
        for span_event in span["events"]
        if span_event["name"] == events.BUSY
    ]
    assert annotated, "shed never landed on a span"


def test_deadline_shed_reports_queue_wait_context():
    """Satellite (b): a caller whose budget would expire while the request
    waits its turn is shed up front, and the fault's detail separates
    'server overloaded' (queueWait) from 'deadline too tight'."""
    network, service, controller, url = _stack(capacity=1.0, max_wait=30.0)
    # build a 10-second modelled backlog *in alice's own lane* — charges
    # queued by other lanes would not delay her under fair queuing
    for _ in range(10):
        controller.release(controller.admit("alice"))
    client = SoapClient(network, url, ECHO_NAMESPACE, principal="alice")
    with pytest.raises(DeadlineExceededError) as excinfo:
        client.call("shout", "hi", timeout=2.0)
    detail = excinfo.value.detail
    assert float(detail["queueWait"]) > 2.0
    assert "remaining" in detail
    assert float(detail["remaining"]) < float(detail["queueWait"])
    assert service.requests_shed == 1


def test_deadline_shed_lands_in_the_resilience_stream():
    log = ResilienceLog()
    network, _service, controller, url = _stack(
        capacity=1.0, max_wait=30.0, log=log
    )
    for _ in range(10):
        controller.release(controller.admit())  # anonymous, like the client
    client = SoapClient(network, url, ECHO_NAMESPACE)
    with pytest.raises(DeadlineExceededError):
        client.call("shout", "hi", timeout=2.0)
    shed = [e for e in log.events if e.code == events.SHED]
    assert len(shed) == 1
    assert shed[0].service == "Echo"
    assert "queueWait" in shed[0].detail


def test_admission_disabled_services_stay_seed_compatible():
    network, service, _controller, url = _stack(
        capacity=1000.0, enabled=False
    )
    client = SoapClient(network, url, ECHO_NAMESPACE)
    for _ in range(20):
        assert client.call("shout", "ok") == "OK"
    assert service.faults_returned == 0


def test_a_forged_priority_attribute_buys_no_class():
    """The principal header names a lane and nothing else: a raw request
    claiming ``priority="9"`` lands in a default-class lane."""
    network, _service, controller, url = _stack(capacity=10.0, max_wait=2.0)
    body = (
        '<env:Envelope xmlns:env="http://schemas.xmlsoap.org/soap/envelope/">'
        '<env:Header><Principal xmlns="urn:gce:loadmgmt" priority="9">'
        "mallory</Principal></env:Header>"
        f'<env:Body><shout xmlns="{ECHO_NAMESPACE}"><text>hi</text></shout>'
        "</env:Body></env:Envelope>"
    )
    response = network.send(
        HttpRequest("POST", parse_url(url), {"Content-Type": "text/xml"}, body),
        source="mallory.example",
    )
    assert response.status == 200
    assert "HI" in response.body
    [row] = controller.lane_rows()
    assert row["lane"] == "mallory"
    assert row["admitted"] == 1
    assert row["priority"] == 0
    assert row["weight"] == controller.queue.default_weight
