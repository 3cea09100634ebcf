"""Golden: the trace export of 500 seeded O1-style calls, pinned by digest.

Span dicts, ids, the sampler's kept-trace set and accounting, and the RED
summary are the observable output of the tracing layer.  Any change to how
ids are minted, spans are buffered, or traces are decided must leave them
byte-identical per seed; this test pins them as sha256 digests, for the
fully traced and the tail-sampled mode.

The workload is the O1 echo service with heavy-tailed payload sizes (so root
latencies spread and the latency-outlier policy has a tail to keep), a
failing method every 37th call (the errors policy), and a transport fault
every 50th call that a retrying client recovers from (retry events on the
span, an extra attempt span per trace), plus deadline-bounded calls.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.faults import PortalError
from repro.observability.runtime import Observability
from repro.resilience.events import ResilienceLog
from repro.resilience.policy import RetryPolicy
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

CALLS = 500
HOST = "echo.golden.org"
NAMESPACE = "urn:golden:echo"

#: sha256 of the canonical JSON export of each mode
GOLDEN = {
    "traced": "de1c1aab6944cfeed2dc8081bb0e2d323c1a89b29e832eb6d89a608335162d81",
    "sampled": "2e52d4c3f09a8b2162b60bb6481ec03d5548391af1498993e349ed799f8c5443",
}


def _run(sampling: bool) -> dict:
    network = VirtualNetwork()
    obs = Observability.install(network, seed=11, sampling=sampling)
    log = ResilienceLog()
    obs.observe_log(log)
    service = SoapService("Echo", NAMESPACE)
    service.expose(lambda text: text.upper(), name="shout")

    def stumble(text: str) -> str:
        raise PortalError(f"injected failure for {len(text)} chars")

    service.expose(stumble, name="stumble")
    url = service.mount(HttpServer(HOST, network), "/echo")
    client = SoapClient(
        network, url, NAMESPACE, source="golden",
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
        resilience_log=log, service_name="Echo", retry_seed=3,
    )
    rng = random.Random(5)
    for i in range(CALLS):
        payload = "x" * min(int(rng.paretovariate(1.1) * 100), 60_000)
        if i % 50 == 49:
            network.fail_next(HOST)
        timeout = 5.0 if i % 7 == 0 else None
        try:
            client.call(
                "stumble" if i % 37 == 36 else "shout", payload,
                timeout=timeout,
            )
        except PortalError:
            pass
    Observability.uninstall(network)
    return {
        "spans": obs.collector.spans(),
        "accounting": obs.sampler.accounting() if obs.sampler else None,
        "red": obs.metrics.summary(),
    }


def _digest(export: dict) -> str:
    text = json.dumps(export, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("mode", ["traced", "sampled"])
def test_trace_export_matches_the_golden(mode):
    export = _run(sampling=(mode == "sampled"))
    assert _digest(export) == GOLDEN[mode]


def test_the_golden_workload_exercises_every_policy():
    acct = _run(sampling=True)["accounting"]
    assert acct["kept_traces"] + acct["dropped_traces"] == CALLS
    assert set(acct["kept_by_policy"]) >= {
        "errors", "latency-outlier", "probabilistic"
    }
