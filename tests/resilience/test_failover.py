"""Discovery-driven failover across the IU/SDSC batch-script pair.

Covers the issue's acceptance criterion: with one provider taken down
mid-benchmark, the client completes every request on the survivor with
zero visible errors, and the breaker caps dead-host traffic at the probe
rate (asserted via ``WireStats.per_host_requests``).
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.resilience.breaker import CircuitBreakerPolicy
from repro.resilience.events import ResilienceLog
from repro.resilience.failover import FailoverClient
from repro.resilience.policy import RetryPolicy
from repro.services.batchscript import BSG_NAMESPACE
from repro.transport.server import HttpServer

from .conftest import IU_HOST, SDSC_HOST


def make_client(network, endpoints, **kwargs):
    kwargs.setdefault("retry_policy", RetryPolicy(max_attempts=2, base_delay=0.05,
                                                  jitter=0.0))
    kwargs.setdefault(
        "breaker_policy",
        CircuitBreakerPolicy(failure_threshold=3, cooldown=300.0),
    )
    return FailoverClient(network, endpoints, BSG_NAMESPACE, **kwargs)


# -- the acceptance benchmark -------------------------------------------------


def test_provider_death_mid_benchmark_is_invisible(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    log = ResilienceLog()
    client = make_client(network, endpoints, sticky=False, resilience_log=log)

    # warm-up: both providers serve interface-level calls
    for _ in range(10):
        assert client.call("supportsScheduler", "LSF") in (True, False)
    assert network.stats.per_host_requests[IU_HOST] > 0
    assert network.stats.per_host_requests[SDSC_HOST] > 0

    # IU dies mid-benchmark
    network.take_down(IU_HOST)
    at_death = network.stats.snapshot()

    completed = 0
    for index in range(40):
        if index % 2:
            schedulers = client.call("listSchedulers")
            assert schedulers == ["LSF", "NQS"]  # the survivor's answer
        else:
            assert client.call("supportsScheduler", "NQS") is True
        completed += 1
    assert completed == 40  # zero client-visible errors

    since_death = network.stats.delta(at_death)
    policy = client.http.breaker_policy
    # the breaker trips after `failure_threshold` wire attempts; with a
    # 300 s cooldown no half-open probe fits in this run, so the dead host
    # sees at most threshold + probes attempts
    assert since_death.per_host_requests.get(IU_HOST, 0) <= (
        policy.failure_threshold + policy.half_open_probes
    )
    # every request was served by the survivor
    assert since_death.per_host_requests[SDSC_HOST] >= 40
    assert client.breaker_state(endpoints[0]) == "open"
    assert any(e.code == "Resilience.Breaker" for e in log.events)
    assert any(e.code == "Resilience.Failover" for e in log.events)


def test_sticky_client_stops_sending_to_dead_provider(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    client = make_client(network, endpoints, sticky=True)

    assert client.call("listSchedulers") == ["PBS", "GRD"]  # IU preferred
    network.take_down(IU_HOST)
    assert client.call("listSchedulers") == ["LSF", "NQS"]
    assert client.failovers_performed == 1

    at_failover = network.stats.snapshot()
    for _ in range(20):
        assert client.call("supportsScheduler", "LSF") is True
    # preference moved to the survivor: the dead host sees no traffic at all
    assert network.stats.delta(at_failover).per_host_requests.get(IU_HOST, 0) == 0


def test_recovers_after_provider_comes_back(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    client = make_client(
        network, endpoints, sticky=False,
        breaker_policy=CircuitBreakerPolicy(failure_threshold=1, cooldown=5.0),
    )
    network.take_down(IU_HOST)
    for _ in range(4):
        client.call("listSchedulers")
    assert client.breaker_state(endpoints[0]) == "open"

    network.bring_up(IU_HOST)
    network.clock.advance(5.0)
    results = {tuple(client.call("listSchedulers")) for _ in range(8)}
    # IU is serving again (round robin reaches both)
    assert ("PBS", "GRD") in results and ("LSF", "NQS") in results
    assert client.breaker_state(endpoints[0]) == "closed"


def test_terminal_errors_do_not_rotate(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    client = make_client(network, endpoints)
    before = network.stats.snapshot()
    with pytest.raises(faults.InvalidRequestError):
        client.call("generateScript", "NoSuchScheduler", {})
    delta = network.stats.delta(before)
    # the refusal is provider-independent: exactly one provider was asked
    assert delta.per_host_requests.get(SDSC_HOST, 0) == 0
    assert client.failovers_performed == 0


def test_all_providers_down_gives_service_unavailable(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    log = ResilienceLog()
    client = make_client(network, endpoints, resilience_log=log, rounds=2)
    network.take_down(IU_HOST)
    network.take_down(SDSC_HOST)
    with pytest.raises(faults.ServiceUnavailableError):
        client.call("listSchedulers")
    assert log.by_code("Resilience.GiveUp")


def test_deadline_bounds_whole_failover(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    client = make_client(
        network, endpoints, rounds=5,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=2.0, jitter=0.0),
    )
    network.take_down(IU_HOST)
    network.take_down(SDSC_HOST)
    t0 = network.clock.now
    with pytest.raises(
        (faults.DeadlineExceededError, faults.ServiceUnavailableError)
    ):
        client.call("listSchedulers", timeout=3.0)
    # gave up within the budget instead of grinding through 5 rounds
    assert network.clock.now - t0 <= 3.5


# -- provider resolution ------------------------------------------------------


def test_from_uddi_resolves_both_providers(bsg_pair):
    network, endpoints, uddi_url, _ = bsg_pair
    client = FailoverClient.from_uddi(
        network, uddi_url, "gce:BatchScriptGenerator", BSG_NAMESPACE
    )
    assert sorted(client.endpoints) == sorted(endpoints)
    assert client.call("supportsScheduler", "PBS") is True


def test_from_uddi_unknown_interface_raises(bsg_pair):
    network, _, uddi_url, _ = bsg_pair
    with pytest.raises(faults.DiscoveryError):
        FailoverClient.from_uddi(network, uddi_url, "gce:NoSuchThing",
                                 BSG_NAMESPACE)


def test_from_wsil_resolves_via_published_wsdl(bsg_pair):
    network, endpoints, _, _ = bsg_pair
    from repro.discovery.wsil import InspectionDocument, publish_inspection

    document = InspectionDocument()
    document.add_service("IU BSG", endpoints[0] + ".wsdl")
    document.add_service("SDSC BSG", endpoints[1] + ".wsdl")
    document.add_service("broken", "http://gone.example.org/x.wsdl")
    wsil_url = publish_inspection(HttpServer("wsil.gce.org", network), document)

    client = FailoverClient.from_wsil(network, wsil_url, BSG_NAMESPACE)
    assert sorted(client.endpoints) == sorted(endpoints)
    assert client.call("listSchedulers")


def test_from_discovery_resolves_by_metadata(bsg_pair):
    network, endpoints, _, discovery_url = bsg_pair
    client = FailoverClient.from_discovery(
        network, discovery_url, {"interface": BSG_NAMESPACE}, BSG_NAMESPACE
    )
    assert sorted(client.endpoints) == sorted(endpoints)
    # the registry also answers the paper's capability query
    lsf = FailoverClient.from_discovery(
        network, discovery_url, {"queuing-system": "LSF"}, BSG_NAMESPACE
    )
    assert lsf.endpoints == [endpoints[1]]


def test_needs_at_least_one_endpoint(bsg_pair):
    network, _, _, _ = bsg_pair
    with pytest.raises(faults.DiscoveryError):
        FailoverClient(network, [], BSG_NAMESPACE)
