"""What tracing adds to a SOAP call, counted in Python opcodes.

o1 (``benchmarks/test_o1_tracing_overhead.py``) times tracing on a shared
host, where wall-clock time drifts.  This test counts the same cost without
noise: the Python opcodes one o1-style call executes (``sys.settrace``
opcode events), untraced, traced and tail-sampled, each on a fresh stack.
The count depends only on the code and the CPython minor version, so each
version has its own budget for what tracing may add; a version without a
budget skips.  A change that makes tracing dearer fails here on every
version CI runs, whatever the host.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.observability.runtime import Observability
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

#: opcodes tracing may add to one call, (traced, sampled), per CPython
#: minor version: the counts of the code that set them, rounded up, so
#: tracing may get cheaper but never dearer
BUDGETS = {
    (3, 10): (740, 1029),
    (3, 11): (770, 1065),
    (3, 12): (715, 989),
}

#: calls before counting: past the latency sketch's 32-root baseline, so
#: the sampled count includes its steady-state threshold refreshes
WARM_CALLS = 48
COUNTED_CALLS = 64

NAMESPACE = "urn:bench:echo"
#: o1's request payload, an RSL job description
PAYLOAD = (
    "&(executable=/usr/local/bin/povray)"
    '(arguments="+i scene.pov" "+o frame042.png" "+w 1024" "+h 768")'
    "(directory=/home/gridsphere/renders/job-042)"
    "(stdout=frame042.out)(stderr=frame042.err)"
    "(count=4)(maxWallTime=30)(queue=normal)"
)


def _client(mode: str) -> SoapClient:
    """o1's stack for *mode* ("off", "on" or "sampled"), warmed up."""
    network = VirtualNetwork()
    if mode != "off":
        Observability.install(network, seed=1, sampling=(mode == "sampled"))
    service = SoapService("Echo", NAMESPACE)
    service.expose(lambda text: text.upper(), name="shout")
    url = service.mount(HttpServer("echo.bench.org", network), "/echo")
    client = SoapClient(network, url, NAMESPACE, source="bench")
    for _ in range(WARM_CALLS):
        client.call("shout", PAYLOAD)
    return client


def _opcodes_per_call(mode: str, calls: int = COUNTED_CALLS) -> float:
    client = _client(mode)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    # no collection while counting: a gc callback another library set (as
    # Hypothesis does) would count its opcodes as the call's
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.settrace(start)
    try:
        for _ in range(calls):
            client.call("shout", PAYLOAD)
    finally:
        sys.settrace(None)
        if gc_was_enabled:
            gc.enable()
    return count / calls


def test_tracing_adds_no_more_opcodes_than_its_budget():
    budget = BUDGETS.get(sys.version_info[:2])
    if budget is None:
        pytest.skip(f"no opcode budget for Python {sys.version_info[:2]}")
    if sys.gettrace() is not None:
        pytest.skip("another trace function (a debugger or coverage) is set")
    # the first traced pass in a process can count nothing (seen on 3.12)
    _opcodes_per_call("on", calls=1)
    off, on, sampled = map(_opcodes_per_call, ("off", "on", "sampled"))
    assert off > 0
    assert on - off <= budget[0] and sampled - off <= budget[1], (
        f"tracing adds {on - off:.0f} opcodes traced and "
        f"{sampled - off:.0f} sampled per call (budget {budget})"
    )
