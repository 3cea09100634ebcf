"""Acceptance: a seeded chaos run yields one trace carrying the retry and
failover story as span events — and the same seed exports byte-identical
traces every time."""

import pytest

from repro.observability.runtime import Observability
from repro.resilience.chaos import ChaosHarness, ChaosMonkey
from repro.resilience.events import FAILOVER, RETRY, ResilienceLog
from repro.resilience.failover import FailoverClient
from repro.resilience.policy import RetryPolicy
from repro.services.batchscript import (
    BSG_NAMESPACE,
    IuBatchScriptGenerator,
    SdscBatchScriptGenerator,
    deploy_batch_script_generator,
)
from repro.simtest.nemesis import (
    BreakerFlapNemesis,
    CrashNemesis,
    LatencySpikeNemesis,
    compose,
)
from repro.soap.client import SoapClient
from repro.transport.network import VirtualNetwork

IU_HOST = "bsg.iu.edu"
SDSC_HOST = "bsg.sdsc.edu"

#: latency spikes only, at p_latency_spike 0.9 per host per step over both
#: hosts: a mean gap of 1 / 1.8 steps (see tests/resilience/test_chaos.py)
SPIKES = compose(
    LatencySpikeNemesis(
        (IU_HOST, SDSC_HOST), every=(0.28, 0.83), magnitude=(0.5, 3.0)
    )
)


def run_portal_request(seed: int) -> Observability:
    """One traced portal request over the failover-portal scenario.

    A chaos monkey applies a schedule of latency spikes (its events, like
    every other resilience event, land on the open span) around a request
    that is guaranteed to retry once (an injected transport fault on IU)
    and to fail over once (IU taken down mid-request): the events due by
    step 1 before the calls, the rest by step 2 after them.
    """
    network = VirtualNetwork()
    obs = Observability.install(network, seed=seed)
    log = ResilienceLog()
    obs.observe_log(log)

    iu_url, _ = deploy_batch_script_generator(
        network, IuBatchScriptGenerator(), IU_HOST
    )
    sdsc_url, _ = deploy_batch_script_generator(
        network, SdscBatchScriptGenerator(), SDSC_HOST
    )
    retrying = SoapClient(
        network, iu_url, BSG_NAMESPACE, source="portal.npaci.edu",
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05),
        resilience_log=log, service_name="BSG", retry_seed=seed,
    )
    failover = FailoverClient(
        network, [iu_url, sdsc_url], BSG_NAMESPACE, source="portal.npaci.edu",
        sticky=True, resilience_log=log, service_name="BSG", retry_seed=seed,
    )
    monkey = ChaosMonkey(network, [IU_HOST, SDSC_HOST], log=log)
    schedule = SPIKES.schedule(seed, 2)

    def step(index: int) -> None:
        monkey.apply_due()
        for event in schedule.events:
            if index - 1 < event.t <= index:
                monkey.apply(event)

    with obs.tracer.span(
        "portal request", kind="server", service="portal",
        host="portal.npaci.edu",
    ):
        step(1)
        network.fail_next(IU_HOST, 1)
        assert retrying.call("supportsScheduler", "PBS") is True
        network.take_down(IU_HOST)
        assert "LSF" in failover.call("listSchedulers")
        network.bring_up(IU_HOST)
        step(2)
    Observability.uninstall(network)
    return obs


def _span(obs, name):
    (span,) = [s for s in obs.collector.spans() if s["name"] == name]
    return span


def test_one_trace_with_retry_and_failover_events():
    obs = run_portal_request(seed=11)
    assert len(obs.collector.trace_ids()) == 1, "the whole story is one trace"

    # the retry happened between attempts of the *logical* client call
    retry_span = _span(obs, "call supportsScheduler")
    assert RETRY in [e["name"] for e in retry_span["events"]]
    # ... and the retried attempt left a failed child span behind
    attempts = [
        s for s in obs.collector.spans()
        if s["name"] == "supportsScheduler" and s["kind"] == "client"
    ]
    assert [bool(s["error"]) for s in attempts] == [True, False]

    # the failover was recorded on the failover client's rotation span
    failover_span = _span(obs, "failover listSchedulers")
    assert FAILOVER in [e["name"] for e in failover_span["events"]]

    # the event-counter metrics agree
    assert obs.metrics.events[RETRY] >= 1
    assert obs.metrics.events[FAILOVER] >= 1


def test_chaos_events_annotate_the_open_request_span():
    obs = run_portal_request(seed=11)
    root = _span(obs, "portal request")
    assert any(
        e["name"].startswith("Chaos.") for e in root["events"]
    ), "the monkey's schedule is visible on the request it disturbed"


def test_same_seed_exports_byte_identical_traces():
    first = run_portal_request(seed=11)
    second = run_portal_request(seed=11)
    assert first.collector.to_json() == second.collector.to_json()
    assert first.metrics.summary() == second.metrics.summary()


def test_different_seeds_mint_different_ids():
    a = run_portal_request(seed=11)
    b = run_portal_request(seed=12)
    assert a.collector.trace_ids() != b.collector.trace_ids()


@pytest.mark.tier2_trace
def test_chaos_soak_traces_stay_structurally_valid():
    """A full chaos-harness soak over the deployed portal, re-verified with
    the reporter's invariants (the same code the CI trace job runs)."""
    from repro.observability import report
    from repro.portal.uiserver import PortalDeployment, UserInterfaceServer
    from repro.resilience.breaker import CircuitBreakerPolicy

    def soak(seed: int):
        deployment = PortalDeployment.build(observe=True, observe_seed=seed)
        ui = UserInterfaceServer(deployment)
        client = ui.failover_client(
            sticky=False,
            breaker_policy=CircuitBreakerPolicy(
                failure_threshold=3, cooldown=1.0
            ),
        )
        monkey = ChaosMonkey(
            deployment.network, [IU_HOST, SDSC_HOST],
            log=deployment.resilience,
        )
        # p_take_down 0.03, p_fault_burst 0.08 and p_latency_spike 0.06
        # per host over both hosts, as gap ranges
        hosts = (IU_HOST, SDSC_HOST)
        schedule = compose(
            CrashNemesis(hosts, every=(8.33, 25.0), outage=(0.5, 2.0)),
            BreakerFlapNemesis(hosts, every=(3.125, 9.375), size=(1, 2)),
            LatencySpikeNemesis(hosts, every=(4.17, 12.5),
                                magnitude=(0.5, 3.0)),
        ).schedule(seed, 40)

        def request(i: int) -> None:
            deployment.network.clock.advance(0.25)
            client.call("supportsScheduler", "NQS")

        harness_report = ChaosHarness(monkey).run(request, schedule, 40)
        obs = deployment.observability
        Observability.uninstall(deployment.network)
        return obs, harness_report

    obs, harness_report = soak(seed=2002)
    assert harness_report.successes > 0
    spans = report.load_spans(obs.collector.to_json())
    assert len(spans) >= 40
    assert report.check_spans(spans, "soak") == []

    again, _ = soak(seed=2002)
    assert again.collector.to_json() == obs.collector.to_json()
