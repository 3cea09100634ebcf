"""Experiment L1 — goodput under overload, with and without admission control.

Three principals with 3:2:1 fair-share weights offer an open-loop arrival
schedule at 1x, 2x and 5x the modelled service capacity.  With the
admission controller on, excess work is refused early with a retry-after
hint and goodput stays pinned at capacity; with it off, the unprotected
server queues work whose callers have already given up and goodput
collapses into deadline sheds.  The verdict lands in ``BENCH_loadmgmt.json``
at the repo root so regressions in the admission hot path are diffable
across PRs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from benchmarks.conftest import record_table
from repro.faults import PortalError
from repro.loadmgmt import AdmissionController, LaneConfig
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

ECHO_NAMESPACE = "urn:bench:echo"
CAPACITY = 4.0  # modelled requests per virtual second
WEIGHTS = {"alice": 3.0, "bob": 2.0, "carol": 1.0}
DURATION = 60.0  # virtual seconds per run
SEED = 42


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _run(*, multiple: float, enabled: bool) -> dict:
    network = VirtualNetwork(seed=SEED)
    controller = AdmissionController(
        network.clock,
        capacity=CAPACITY,
        max_wait=2.5,
        lanes={name: LaneConfig(weight=w) for name, w in WEIGHTS.items()},
        enabled=enabled,
        service="Echo",
    )
    service = SoapService("Echo", ECHO_NAMESPACE)
    service.expose(lambda text: text, name="work")
    service.enable_admission(controller)
    url = service.mount(HttpServer("echo.bench.org", network), "/echo")

    total_rate = multiple * CAPACITY
    clients, next_at, interval = {}, {}, {}
    for index, name in enumerate(sorted(WEIGHTS)):
        clients[name] = SoapClient(
            network, url, ECHO_NAMESPACE, source=f"{name}.org", principal=name
        )
        interval[name] = len(WEIGHTS) / total_rate
        next_at[name] = index * interval[name] / len(WEIGHTS)

    timeout = None if enabled else 3.0
    started = network.clock.now
    succeeded = shed = 0
    latencies: list[float] = []
    while True:
        name = min(next_at, key=lambda n: (next_at[n], n))
        at = next_at[name]
        if at - started >= DURATION:
            break
        network.clock.sleep_until(at)
        t0 = network.clock.now
        try:
            clients[name].call("work", "payload", timeout=timeout)
            succeeded += 1
            latencies.append(network.clock.now - t0)
        except PortalError:
            shed += 1
        next_at[name] = at + interval[name]

    # the driver is serial, so at high multiples the virtual clock can
    # outrun the nominal schedule; goodput divides by real elapsed time
    elapsed = max(network.clock.now - started, DURATION)
    offered = succeeded + shed
    return {
        "multiple": multiple,
        "admission": "on" if enabled else "off",
        "offered": offered,
        "succeeded": succeeded,
        "shed": shed,
        "goodput_per_s": succeeded / elapsed,
        "shed_rate": shed / offered if offered else 0.0,
        "p99_latency_s": _percentile(latencies, 0.99),
    }


def test_overload_throughput_with_and_without_admission():
    runs = [
        _run(multiple=m, enabled=on)
        for m in (1.0, 2.0, 5.0)
        for on in (True, False)
    ]
    by_key = {(r["multiple"], r["admission"]): r for r in runs}

    # admission holds goodput at capacity even at 5x offered load
    protected = by_key[(5.0, "on")]
    assert protected["goodput_per_s"] > 0.9 * CAPACITY
    # without it, goodput collapses under the same offered load
    unprotected = by_key[(5.0, "off")]
    assert unprotected["goodput_per_s"] < 0.5 * protected["goodput_per_s"]
    # admitted requests see bounded queueing: p99 stays within the
    # controller's max modelled wait plus the wire round trip
    assert protected["p99_latency_s"] < 2.5 + 0.5

    record_table(
        "L1  goodput under overload (admission on vs off)",
        ["offered", "admission", "goodput/s", "shed rate", "p99 latency s"],
        [
            [f"{r['multiple']:.0f}x", r["admission"], r["goodput_per_s"],
             r["shed_rate"], r["p99_latency_s"]]
            for r in runs
        ],
    )

    out = Path(__file__).parent.parent / "BENCH_loadmgmt.json"
    out.write_text(json.dumps({
        "benchmark": "l1_overload_throughput",
        "command": "PYTHONPATH=src python -m pytest -q --benchmark-disable "
                   "benchmarks/test_l1_overload_throughput.py",
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "capacity_per_s": CAPACITY,
        "duration_s": DURATION,
        "weights": WEIGHTS,
        "seed": SEED,
        "runs": runs,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
