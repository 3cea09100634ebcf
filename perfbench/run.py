"""The portal benchmark: one workload per run, every metric by name and unit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload soap-echo --seed 1 --seconds 25 --trace 0

Workloads: ``soap-echo``, ``srb-bulk``, ``portal-shell``, ``saml-signed``
(see ``workloads.py``).  A run builds the stack from the checkout's
``src/``, runs the deterministic pass (two seeded cycles of ops, checked,
with the layer trace counting), then times ops in a closed loop for
``--seconds``, checking every reply.

Wall-clock times are *host-scaled*: on a shared host, other tenants slow
the process down by up to ~2x for seconds to minutes at a time (CPU time
tracks wall time, so it is not the scheduler), often for a whole run.  A
fixed calibration loop (:func:`calibration_ns`), which runs no program
code, is timed between cycles and slows with the program (on a 2-vCPU VM
both read ~1.7x slower in such a phase).  Each time is scaled by
REFERENCE_NS over the calibration read around it: it reads as wall-clock
time on a host that runs the calibration in REFERENCE_NS.  Every op
counts; nothing is dropped.  The calibration only measures the host while
the program runs no other thread, so a run in which the program started
one is not ``correct``.

End-to-end metrics (names, units and directions in ``BENCHMARK.json``):

- ``setup_s``: process start to the first timed op (imports, stack build,
  login, the deterministic pass), host-scaled, as the median of
  SETUP_PROBES fresh processes started after the timed window: this script
  in ``--probe`` mode, each under another ``PYTHONHASHSEED``.  Their
  passes must agree exactly with the run's own, or the run is not
  ``correct``.
- ``op_us_p50``, ``op_us_p99``: median and 99th-percentile (nearest rank)
  host-scaled time per op, over every timed op.  With fewer than
  MIN_BEYOND_P99 ops beyond the 99th percentile, the run is not
  ``correct``.
- ``ops_per_s``: ops completed / host-scaled seconds of the timed window.
- ``vtime_ms_per_op``, ``wire_bytes_per_op``: modelled ``SimClock`` time
  and ``WireStats`` bytes sent + received, per op of the deterministic pass.
- ``peak_rss_mb``: peak resident memory of the run's process.

``fail_ratio`` (failed ops / ops attempted; an op fails if its output
fails its check or it raises anything but its expected classified fault)
is printed on every run but not listed in ``BENCHMARK.json``, whose metrics
must never read 0; the result line carries it as ``failed`` /
``attempted``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the time
between an untraced and a traced window and reports the per-layer metrics
(``definitions.py``), writing the spans to ``perfbench/out/``.

A human-readable table goes to stderr; the last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402 - after the set-up clock starts
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: seeded cycles in the deterministic pass
PASS_CYCLES = 2
#: fresh processes that repeat the set-up after the timed window
SETUP_PROBES = 5
#: ops a run must have beyond its op_us_p99
MIN_BEYOND_P99 = 10
#: the share of a --trace 1 run spent traced (the rest is the untraced
#: baseline for bench.trace_overhead and bench.drift)
TRACED_SHARE = 0.25
#: rounds of the calibration loop over its table
CALIBRATION_ROUNDS = 6
#: about the calibration's time on a quiet 2-vCPU VM (105-117 us there):
#: host-scaled times read as wall-clock times on a host as fast as that
REFERENCE_NS = 110_000
_CALIBRATION_KEYS = tuple(f"key{i}" for i in range(512))
_CALIBRATION_TABLE = dict.fromkeys(_CALIBRATION_KEYS, 1)


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, str(src))


def units(section: str) -> dict[str, str]:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` list of
    ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


# -- the deterministic pass -----------------------------------------------------


def deterministic_pass(workload) -> tuple[dict[str, float], int]:
    """Run the first PASS_CYCLES cycles on the fresh stack with the layer
    trace counting; returns (modelled metrics, failed ops)."""
    from layertrace import LayerTrace
    from workloads import program_counters

    trace = LayerTrace()
    trace.install(workload.network)
    try:
        before = program_counters(workload)
        ops = [op for i in range(PASS_CYCLES) for op in workload.cycle(i)]
        failed = sum(not run_op(op, trace.run_op)[1] for op in ops)
        after = program_counters(workload)
    finally:
        trace.uninstall()
    n = len(ops)

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    modelled = {
        "vtime_ms_per_op": 1000 * delta("vtime_s") / n,
        "wire_bytes_per_op": delta("wire_bytes") / n,
        "soap.calls": trace.calls["repro.soap.client:SoapClient.call"] / n,
        "transport.requests": delta("transport.requests") / n,
        "transport.connections": delta("transport.connections") / n,
        "xmlutil.parse.calls": trace.calls["repro.xmlutil.element:parse_xml"] / n,
        "xmlutil.parse.chars": trace.chars["parse"] / n,
        "xmlutil.serialize.chars": trace.chars["serialize"] / n,
        "soap.server.faults": trace.faults / n,
        "security.verify_calls": delta("security.verify_calls") / n,
        "security.cache_hit_ratio": ratio(
            delta("security.cache_hits"), delta("security.cache_lookups")),
        "security.cache_entries": after.get("security.cache_entries", 0) / n,
        "loadmgmt.refused": delta("loadmgmt.refused") / n,
        "loadmgmt.queue_wait_ms": 1000 * ratio(
            delta("loadmgmt.wait_s"), delta("loadmgmt.admitted")),
        "resilience.retries": delta("resilience.retries") / n,
        "observability.spans": trace.calls["repro.observability.tracer:Tracer.end"] / n,
        "observability.kept_ratio": ratio(
            delta("observability.kept"), delta("observability.decided")),
        "grid.jobs_retained": after.get("grid.jobs_retained", 0) / n,
    }
    return modelled, failed


def setup(name: str, seed: int):
    """Build the workload's stack and run the deterministic pass."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.build()
    modelled, failed = deterministic_pass(workload)
    return workload, modelled, failed


# -- timing ---------------------------------------------------------------------


def run_op(op, runner=None) -> tuple[int, bool]:
    """Run and check one op; returns (wall ns, whether it was right)."""
    from workloads import fault_code

    clock = time.perf_counter_ns
    started = clock()
    try:
        result = op.call() if runner is None else runner(op.call)
    except Exception as exc:  # noqa: BLE001 - any raise is an outcome to check
        elapsed = clock() - started
        return elapsed, bool(op.fault) and fault_code(exc) == op.fault
    elapsed = clock() - started
    if op.fault:
        return elapsed, False
    try:
        return elapsed, bool(op.check(result))
    except Exception:  # noqa: BLE001 - a reply the check cannot read is wrong
        return elapsed, False


def calibration_ns() -> int:
    """Time a fixed piece of interpreter work that shares no code or data
    with the program: how fast the host lets this process run just now.
    Its timed part allocates nothing the garbage collector tracks."""
    table, keys = _CALIBRATION_TABLE, _CALIBRATION_KEYS
    clock = time.perf_counter_ns
    # untimed: bring back into cache what the program's last cycle evicted
    total = sum(table[key] for key in keys)
    started = clock()
    for _ in range(CALIBRATION_ROUNDS):
        for key in keys:
            total += table[key]
    return clock() - started


class Cycle(NamedTuple):
    """One timed cycle of ops: ops ``first`` to ``end`` of its window."""

    first: int
    end: int
    wall_ns: int
    #: the faster of the calibrations timed just before and just after it
    #: (a burst of interference that hits one reading does not count)
    host_ns: int

    @property
    def scale(self) -> float:
        """Host-scaled time / wall-clock time, for this cycle's ops."""
        return REFERENCE_NS / self.host_ns


@dataclass
class Window:
    """One timed stretch of ops, cycle by cycle."""

    durations_ns: list[int] = field(default_factory=list)
    failed: int = 0
    cycles: list[Cycle] = field(default_factory=list)
    next_cycle: int = 0

    @property
    def ops(self) -> int:
        return len(self.durations_ns)

    def scaled(self, cycles: list[Cycle] | None = None) -> tuple[list[float], float]:
        """Host-scaled op times and total ns of *cycles* (default all)."""
        durations: list[float] = []
        total = 0.0
        for cycle in self.cycles if cycles is None else cycles:
            scale = cycle.scale
            durations += [d * scale for d in self.durations_ns[cycle.first:cycle.end]]
            total += cycle.wall_ns * scale
        return durations, total

    def drift(self) -> float:
        """Host-scaled median op time of the last quarter's cycles over the
        first quarter's."""
        quarter = max(1, len(self.cycles) // 4)
        first = self.scaled(self.cycles[:quarter])[0]
        last = self.scaled(self.cycles[-quarter:])[0]
        return statistics.median(last) / statistics.median(first)


def timed_window(workload, seconds: float, first_cycle: int, *,
                 max_ops: int = 0, runner=None) -> Window:
    """Closed loop over whole cycles until *seconds* are up (or until exactly
    *max_ops* ops, when set), with a calibration between cycles."""
    window = Window()
    gc.collect()
    clock = time.perf_counter_ns
    stop = clock() + int(seconds * 1e9)
    index = first_cycle
    before = calibration_ns()
    while True:
        ops = workload.cycle(index)
        first, started = window.ops, clock()
        for op in ops:
            elapsed, ok = run_op(op, runner)
            window.durations_ns.append(elapsed)
            window.failed += not ok
            if window.ops == max_ops:
                break
        index += 1
        now = clock()
        after = calibration_ns()
        window.cycles.append(
            Cycle(first, window.ops, now - started, min(before, after)))
        before = after
        if (window.ops == max_ops) if max_ops else now >= stop:
            window.next_cycle = index
            return window


def nearest_rank(n: int, q: int) -> int:
    """The 1-based nearest rank of the *q*-th percentile of *n* samples."""
    return max(1, -(-n * q // 100))


# -- set-up probes ----------------------------------------------------------------


def probe(name: str, seed: int, hash_seed: int) -> dict:
    """Repeat set-up and the deterministic pass in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name,
         "--seed", str(seed), "--probe"],
        cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- one run --------------------------------------------------------------------


@dataclass
class Result:
    attempted: int
    failed: int
    #: name -> (value, unit), as in BENCHMARK.json
    metrics: dict[str, tuple[float, str]]
    #: printed with the metrics but left out of the result line
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: what makes the run incorrect besides failed ops
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


def run(name: str, seed: int, seconds: float, trace: bool, *,
        probes: int = SETUP_PROBES, max_ops: int = 0,
        spans_dir: Path | None = None) -> Result:
    """One benchmark run; *max_ops* (tests) bounds each window by op count
    instead of time."""
    from layertrace import ENTRY_POINTS, OP, LayerTrace

    workload, modelled, pass_failed = setup(name, seed)
    result = Result(0, 0, {})
    if pass_failed:
        result.problems.append(f"{pass_failed} ops of the deterministic pass failed")

    untraced_seconds = seconds * (1 - TRACED_SHARE) if trace else seconds
    window = timed_window(workload, untraced_seconds, PASS_CYCLES, max_ops=max_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.failed, result.attempted = window.failed, window.ops
    scaled_ns, scaled_total_ns = window.scaled()
    p50_us = statistics.median(scaled_ns) / 1000

    if trace:
        layer_trace = LayerTrace()
        layer_trace.install(workload.network)
        # a portal-shell session that ends mid-window deploys a fresh stack
        workload.on_new_stack = layer_trace.attach
        try:
            traced = timed_window(workload, seconds - untraced_seconds,
                                  window.next_cycle, max_ops=max_ops,
                                  runner=layer_trace.run_op)
        finally:
            workload.on_new_stack = None
            layer_trace.uninstall()
        result.failed += traced.failed
        result.attempted += traced.ops
        # op ids count from 1 in the traced window, in op order
        self_ns = layer_trace.self_times_ns({
            i + 1: cycle.scale for cycle in traced.cycles
            for i in range(cycle.first, cycle.end)})
        values = {f"{layer}.self_us": self_ns.get(layer, 0) / (1000 * traced.ops)
                  for layer in ENTRY_POINTS}
        values.update(modelled)
        values["bench.unattributed_share"] = self_ns.get(OP, 0) / sum(self_ns.values())
        values["bench.trace_overhead"] = (
            statistics.median(traced.scaled()[0]) / 1000 / p50_us)
        values["bench.drift"] = window.drift()
        result.metrics = {k: (values[k], unit) for k, unit in units("per_layer").items()}
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            layer_trace.write(spans_dir / f"{name}-seed{seed}.spans.jsonl.gz")

    if threading.active_count() > 1:
        result.problems.append(
            "the program started a thread: the calibration no longer "
            "measures the host alone")

    setups = []
    for hash_seed in range(1, probes + 1):
        child = probe(name, seed, hash_seed)
        setups.append(child["setup_s"])
        diff = sorted(k for k in modelled if child["modelled"].get(k) != modelled[k])
        if diff or child["failed"]:
            result.problems.append(
                f"set-up probe under PYTHONHASHSEED={hash_seed} disagrees: "
                f"{child['failed']} failed ops; differs in {', '.join(diff) or '-'}")

    if not trace:
        rank = nearest_rank(len(scaled_ns), 99)
        beyond_p99 = len(scaled_ns) - rank
        if beyond_p99 < MIN_BEYOND_P99:
            result.problems.append(
                f"only {beyond_p99} ops lie beyond op_us_p99 "
                f"(at least {MIN_BEYOND_P99} needed): run longer")
        values = {
            "setup_s": statistics.median(setups),
            "op_us_p50": p50_us,
            "op_us_p99": sorted(scaled_ns)[rank - 1] / 1000,
            "ops_per_s": len(scaled_ns) / (scaled_total_ns / 1e9),
            "vtime_ms_per_op": modelled["vtime_ms_per_op"],
            "wire_bytes_per_op": modelled["wire_bytes_per_op"],
            "peak_rss_mb": peak_rss_mb,
        }
        result.metrics = {k: (values[k], unit) for k, unit in units("end_to_end").items()}
        result.extra = {
            "fail_ratio": (window.failed / window.ops, "ratio"),
            "samples": (len(scaled_ns), "ops"),
            "samples_beyond_p99": (beyond_p99, "ops"),
            "wall_us_p50": (statistics.median(window.durations_ns) / 1000, "us"),
            "host_scale": (scaled_total_ns / sum(c.wall_ns for c in window.cycles),
                           "ratio"),
            "bench.drift": (window.drift(), "ratio"),
        }
    return result


def report(name: str, seed: int, result: Result) -> None:
    """The human-readable table, to stderr."""
    out = sys.stderr
    print(f"perfbench {name} seed={seed} correct={result.correct} "
          f"attempted={result.attempted} failed={result.failed}", file=out)
    for metric, (value, unit) in {**result.metrics, **result.extra}.items():
        print(f"  {metric:<28} {value:>14.6g} {unit}", file=out)
    for problem in result.problems:
        print(f"  PROBLEM: {problem}", file=out)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="repeat set-up and the deterministic pass only "
                             "(used by the run itself)")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.probe:
        before = calibration_ns()
        _workload, modelled, failed = setup(args.workload, args.seed)
        setup_s = time.perf_counter() - _STARTED
        scale = REFERENCE_NS / min(before, calibration_ns())
        print(json.dumps({"setup_s": setup_s * scale,
                          "modelled": modelled, "failed": failed}))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spans_dir=BENCH_DIR / "out" if args.trace else None)
    report(args.workload, args.seed, result)
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
