"""Experiment O1 — the cost of watching: SOAP dispatch with tracing
off / on / on-with-tail-sampling.

The observability layer instruments every client call and server dispatch
(spans, trace propagation, RED samples).  This benchmark runs the same
workload on three identical networks — bare, fully traced, and traced
with the tail sampler deciding retention — and compares wall-clock
dispatch cost and bytes on the wire.  The sampled mode is the ROADMAP's
production configuration, so it carries the hard budget: tracing may add
at most SAMPLED_OVERHEAD_BUDGET_US to a call, while error and
latency-outlier traces are still retained.

The budget is on tracing's own cost, not on its ratio to the untraced
call: a cheaper untraced call (a faster XML parser, say) leaves tracing's
cost where it was, yet would read as a larger ratio.

Measurement discipline: the three modes are timed in small *interleaved
chunks* — an off chunk, an on chunk, a sampled chunk, milliseconds apart
— and a mode's overhead is the median over the chunk triples of
``(mode - off) / CHUNK``.  Machine noise (scheduler bursts, CPU frequency
drift) lands on adjacent chunks alike and cancels out of the difference.
Each triple is *host-scaled* as perfbench's times are: multiplied by
``REFERENCE_NS`` over the faster of the calibration loops timed just
before and just after it (``perfbench/run.py``'s ``calibration_ns``,
which runs no program code).  Other tenants of a shared host slow the
calibration with the program, so a host-scaled microsecond reads as one
on a host as fast as the reference.

The verdict lands in ``BENCH_observability.json`` at the repo root; CI's
ratchet step (tier2-trace, ``benchmarks/ratchet.py``) fails the build if
either overhead regresses more than 15% against the committed baseline.
"""

from __future__ import annotations

import gc
import json
import platform
import pyexpat
import time
from pathlib import Path
from statistics import median

from benchmarks.conftest import record_table
from perfbench.run import REFERENCE_NS, calibration_ns
from repro.faults import PortalError
from repro.observability.runtime import Observability
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer

CALLS = 400
#: calls per timing chunk; chunks are interleaved across the three modes
CHUNK = 50
#: interleaved passes over fresh stacks (sample size = passes x chunks)
REPS = 10
#: the observability seed of the traced stacks (trace ids, sampling coin)
SEED = 1
ECHO_NAMESPACE = "urn:bench:echo"

#: the most host-scaled microseconds tail-sampled tracing may add to a
#: call: the allowance the former gate (a sampled slowdown ratio under
#: 1.2) gave, 0.2 x the untraced call with the hand-rolled XML parser,
#: which read 155 host-scaled us (median of ten runs of this benchmark,
#: CPython 3.11.7 on a shared 2-vCPU VM)
SAMPLED_OVERHEAD_BUDGET_US = 31.0

#: a representative request body — portal calls carry job descriptors
#: (RSL), not single words, and the overhead budget is a statement about
#: production traffic; instrumentation cost is flat per call, so a
#: realistic payload is what it must be measured against
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
                self.network, seed=SEED, sampling=(mode == "sampled")
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

    def time_chunk(self) -> int:
        """Wall-clock nanoseconds of CHUNK calls."""
        call = self.client.call
        started = time.perf_counter_ns()
        for _ in range(CHUNK):
            call("shout", PAYLOAD)
        return time.perf_counter_ns() - started

    def finish(self) -> dict:
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
            "bytes_sent": delta.bytes_sent,
            "spans": spans,
            "kept_error_traces": kept_error_traces,
            "accounting": accounting,
        }


MODES = ("off", "on", "sampled")
TRACED = ("on", "sampled")


def _measure() -> tuple[dict[str, dict], dict[str, float], dict[str, float]]:
    """REPS interleaved passes: per-mode results (host-scaled median us per
    call included), median host-scaled overheads in us per call, and median
    paired slowdown ratios."""
    results: dict[str, dict] = {}
    per_call: dict[str, list[float]] = {mode: [] for mode in MODES}
    overheads: dict[str, list[float]] = {mode: [] for mode in TRACED}
    ratios: dict[str, list[float]] = {mode: [] for mode in TRACED}
    for _ in range(REPS):
        stacks = {mode: _Stack(mode) for mode in MODES}
        gc.collect()
        before = calibration_ns()
        for _ in range(CALLS // CHUNK):
            ns = {mode: stacks[mode].time_chunk() for mode in MODES}
            after = calibration_ns()
            # wall-clock ns of a chunk -> host-scaled us per call
            scale = REFERENCE_NS / min(before, after) / CHUNK / 1000
            before = after
            for mode in MODES:
                per_call[mode].append(ns[mode] * scale)
            for mode in TRACED:
                overheads[mode].append((ns[mode] - ns["off"]) * scale)
                ratios[mode].append(ns[mode] / ns["off"])
        # the stacks are seeded, so every pass counts the same
        results = {mode: stacks[mode].finish() for mode in MODES}
    for mode in MODES:
        results[mode]["us_per_call"] = median(per_call[mode])
    return (
        results,
        {mode: median(overheads[mode]) for mode in TRACED},
        {mode: median(ratios[mode]) for mode in TRACED},
    )


def test_tracing_overhead_per_dispatch():
    results, overheads, ratios = _measure()
    off, on, sampled = results["off"], results["on"], results["sampled"]

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

    overhead_on, overhead_sampled = overheads["on"], overheads["sampled"]
    ratio_on, ratio_sampled = ratios["on"], ratios["sampled"]
    record_table(
        "O1  tracing overhead per SOAP dispatch (off / on / sampled)",
        ["tracing", "calls", "us/call", "overhead us", "bytes sent", "spans"],
        [
            ["off", off["calls"], off["us_per_call"], "", off["bytes_sent"], 0],
            ["on", on["calls"], on["us_per_call"], overhead_on,
             on["bytes_sent"], on["spans"]],
            ["sampled", sampled["calls"], sampled["us_per_call"],
             overhead_sampled, sampled["bytes_sent"], sampled["spans"]],
            ["ratio on", "", ratio_on, "", "", ""],
            ["ratio sampled", "", ratio_sampled, "", "", ""],
        ],
    )

    out = Path(__file__).parent.parent / "BENCH_observability.json"
    out.write_text(json.dumps({
        "benchmark": "o1_tracing_overhead",
        "command": "PYTHONPATH=src python -m pytest -q --benchmark-disable "
                   "benchmarks/test_o1_tracing_overhead.py",
        "seed": SEED,
        "python": platform.python_version(),
        "expat": pyexpat.EXPAT_VERSION,
        "calls": CALLS,
        "reference_ns": REFERENCE_NS,
        "untraced": {k: v for k, v in off.items() if k != "accounting"},
        "traced": {k: v for k, v in on.items() if k != "accounting"},
        "sampled": sampled,
        "overhead_us_per_call": overhead_on,
        "sampled_overhead_us_per_call": overhead_sampled,
        "sampled_overhead_budget_us": SAMPLED_OVERHEAD_BUDGET_US,
        "slowdown_ratio": ratio_on,
        "sampled_slowdown_ratio": ratio_sampled,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    # full tracing keeps its generous same-order-of-magnitude guard ...
    assert ratio_on < 10, f"tracing slowed dispatch {ratio_on:.1f}x"
    # ... but the sampled mode is the production configuration and holds
    # the hard budget on what tracing adds to a call
    assert overhead_sampled <= SAMPLED_OVERHEAD_BUDGET_US, (
        f"tail-sampled tracing adds {overhead_sampled:.1f} us per call "
        f"(budget: {SAMPLED_OVERHEAD_BUDGET_US:g} us)"
    )
