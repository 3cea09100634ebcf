"""Experiment O1 — the cost of watching: SOAP dispatch with tracing
off / on / on-with-tail-sampling.

The observability layer instruments every client call and server dispatch
(spans, trace propagation, RED samples).  This benchmark runs the same
workload on three identical networks — bare, fully traced, and traced
with the tail sampler deciding retention — and compares wall-clock
dispatch cost and bytes on the wire.  The sampled mode is the ROADMAP's
production configuration, so it carries the hard budget: under 20%
overhead (``slowdown_ratio < 1.2``) while error and latency-outlier
traces are still retained.

Measurement discipline: the three modes are timed in small *interleaved
chunks* — an off chunk, an on chunk, a sampled chunk, milliseconds apart
— and the reported ratio is the median of the per-chunk paired ratios.
Machine noise (scheduler bursts, CPU frequency drift) lands on adjacent
chunks alike and cancels out of the pairs; a run-level "measure one mode
start to finish, then the next" design is visibly unstable on shared
hardware.

The verdict lands in ``BENCH_observability.json`` at the repo root; CI's
ratchet step (tier2-trace, ``benchmarks/ratchet.py``) fails the build if
the normalized overhead regresses more than 15% against the committed
baseline.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from statistics import median

from benchmarks.conftest import record_table
from repro.faults import PortalError
from repro.observability.runtime import Observability
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

CALLS = 400
#: calls per timing chunk; chunks are interleaved across the three modes
CHUNK = 50
#: interleaved passes over fresh stacks (ratio sample size = passes x chunks)
REPS = 5
ECHO_NAMESPACE = "urn:bench:echo"

#: a representative request body — portal calls carry job descriptors
#: (RSL), not single words, and the overhead budget is a statement about
#: production traffic; instrumentation cost is flat per call, so a
#: realistic payload is what the ratio must be measured against
PAYLOAD = (
    "&(executable=/usr/local/bin/povray)"
    '(arguments="+i scene.pov" "+o frame042.png" "+w 1024" "+h 768")'
    "(directory=/home/gridsphere/renders/job-042)"
    "(stdout=frame042.out)(stderr=frame042.err)"
    "(count=4)(maxWallTime=30)(queue=normal)"
)


class _Stack:
    """One mode's deployment: network, optional observability, client."""

    def __init__(self, mode: str):
        self.mode = mode
        self.network = VirtualNetwork()
        self.obs = None
        if mode != "off":
            self.obs = Observability.install(
                self.network, seed=1, sampling=(mode == "sampled")
            )
        service = SoapService("Echo", ECHO_NAMESPACE)
        service.expose(lambda text: text.upper(), name="shout")

        def flaky(text: str) -> str:
            raise PortalError(f"injected failure for {text!r}")

        service.expose(flaky, name="stumble")
        url = service.mount(HttpServer("echo.bench.org", self.network), "/echo")
        self.client = SoapClient(
            self.network, url, ECHO_NAMESPACE, source="bench"
        )
        self.client.call("shout", "warm")  # warm caches before any timing
        self.stats_before = self.network.stats.snapshot()

    def time_chunk(self) -> float:
        call = self.client.call
        started = time.perf_counter()
        for _ in range(CHUNK):
            call("shout", PAYLOAD)
        return time.perf_counter() - started

    def finish(self, chunks: list[float]) -> dict:
        delta = self.network.stats.delta(self.stats_before)
        # one failed call after the timed window: under tail sampling the
        # error trace must survive the policy chain
        try:
            self.client.call("stumble", "probe")
        except PortalError:
            pass
        obs = self.obs
        if obs is not None and obs.sampler is not None:
            obs.sampler.flush()
        spans = len(obs.collector) if obs is not None else 0
        kept_error_traces = 0
        accounting: dict = {}
        if obs is not None and obs.sampler is not None:
            accounting = obs.sampler.accounting()
            kept_error_traces = len(
                {s["trace_id"] for s in obs.collector.spans() if s["error"]}
            )
        if obs is not None:
            Observability.uninstall(self.network)
        return {
            "calls": CALLS,
            "us_per_call": 1e6 * median(chunks) / CHUNK,
            "bytes_sent": delta.bytes_sent,
            "spans": spans,
            "kept_error_traces": kept_error_traces,
            "accounting": accounting,
        }


MODES = ("off", "on", "sampled")


def _measure() -> tuple[dict[str, dict], dict[str, float]]:
    """REPS interleaved passes; per-mode results and paired median ratios."""
    runs: dict[str, list[dict]] = {mode: [] for mode in MODES}
    paired: dict[str, list[float]] = {"on": [], "sampled": []}
    for _ in range(REPS):
        stacks = {mode: _Stack(mode) for mode in MODES}
        chunks: dict[str, list[float]] = {mode: [] for mode in MODES}
        gc.collect()
        for _ in range(CALLS // CHUNK):
            for mode in MODES:
                chunks[mode].append(stacks[mode].time_chunk())
        for i, off_chunk in enumerate(chunks["off"]):
            paired["on"].append(chunks["on"][i] / off_chunk)
            paired["sampled"].append(chunks["sampled"][i] / off_chunk)
        for mode in MODES:
            runs[mode].append(stacks[mode].finish(chunks[mode]))
    best = {
        mode: min(runs[mode], key=lambda r: r["us_per_call"]) for mode in MODES
    }
    ratios = {mode: median(paired[mode]) for mode in paired}
    return best, ratios


def test_tracing_overhead_per_dispatch():
    best, ratios = _measure()
    off, on, sampled = best["off"], best["on"], best["sampled"]

    # tracing must actually have traced: three spans per call (logical
    # client call, attempt, server dispatch), plus the post-window error
    # probe's trace
    assert on["spans"] >= 3 * CALLS
    assert off["spans"] == 0
    # trace context rides the transport header, so the wire still grows
    assert on["bytes_sent"] > off["bytes_sent"]

    # the tail sampler must have dropped the boring bulk ...
    acct = sampled["accounting"]
    assert acct["dropped_traces"] > 0
    assert sampled["spans"] < on["spans"] / 2
    # ... while retaining every error trace (the probe call at minimum)
    assert sampled["kept_error_traces"] >= 1
    assert acct["kept_by_policy"].get("errors", 0) >= 1

    overhead_on = on["us_per_call"] - off["us_per_call"]
    overhead_sampled = sampled["us_per_call"] - off["us_per_call"]
    ratio_on = ratios["on"]
    ratio_sampled = ratios["sampled"]
    record_table(
        "O1  tracing overhead per SOAP dispatch (off / on / sampled)",
        ["tracing", "calls", "us/call", "bytes sent", "spans"],
        [
            ["off", off["calls"], off["us_per_call"], off["bytes_sent"], 0],
            ["on", on["calls"], on["us_per_call"], on["bytes_sent"],
             on["spans"]],
            ["sampled", sampled["calls"], sampled["us_per_call"],
             sampled["bytes_sent"], sampled["spans"]],
            ["ratio on", "", ratio_on, "", ""],
            ["ratio sampled", "", ratio_sampled, "", ""],
        ],
    )

    out = Path(__file__).parent.parent / "BENCH_observability.json"
    out.write_text(json.dumps({
        "benchmark": "o1_tracing_overhead",
        "calls": CALLS,
        "untraced": {k: v for k, v in off.items() if k != "accounting"},
        "traced": {k: v for k, v in on.items() if k != "accounting"},
        "sampled": sampled,
        "overhead_us_per_call": overhead_on,
        "sampled_overhead_us_per_call": overhead_sampled,
        "slowdown_ratio": ratio_on,
        "sampled_slowdown_ratio": ratio_sampled,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    # full tracing keeps its generous same-order-of-magnitude guard ...
    assert ratio_on < 10, f"tracing slowed dispatch {ratio_on:.1f}x"
    # ... but the sampled mode is the production configuration and holds
    # the ROADMAP's hard budget: under 20% overhead
    assert ratio_sampled < 1.2, (
        f"tail-sampled tracing slowed dispatch {ratio_sampled:.2f}x "
        "(budget: < 1.2x)"
    )
