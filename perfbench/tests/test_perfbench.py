"""Tests of the benchmark's own code: each workload for a few ops.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layertrace  # noqa: E402
import run as perfbench  # noqa: E402
from definitions import SHOULD_MOVE, measured_at  # noqa: E402
from layertrace import ENTRY_POINTS, OP, LayerTrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_value, unit) in metrics.items()}


def _p99_shortfall(problem: str) -> bool:
    return "beyond op_us_p99" in problem


def patch_sites(network) -> dict[str, object]:
    """Every place :meth:`LayerTrace.install` may patch, mapped to what is
    there now: callables of every ``repro`` module, the patched class
    attributes, every route table entry, and every exposed method of the
    mounted services."""
    sites: dict[str, object] = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "repro" or mod_name.startswith("repro."):
            for attr, value in vars(module).items():
                if callable(value):
                    sites[f"{mod_name}.{attr}"] = value
    for _layer, entry, module, qualname in layertrace.entries(""):
        owner, name = layertrace.resolve(module, qualname)
        sites[entry] = vars(owner)[name]
    for host in network.hosts():
        for path, handler in getattr(network._hosts[host], "_routes", {}).items():
            sites[f"route:{host}{path}"] = handler
            service = getattr(handler, "__self__", None)
            for exposed in getattr(service, "methods", {}).values():
                sites[f"exposed:{host}{path}:{exposed.name}"] = exposed.func
    return sites


def test_every_per_layer_metric_is_defined():
    for metric in SPEC["per_layer"]:
        assert measured_at(metric["name"]) and SHOULD_MOVE[metric["name"]]
    assert {f"{layer}.self_us" for layer in ENTRY_POINTS} <= {
        metric["name"] for metric in SPEC["per_layer"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = perfbench.run(name, 3, 0, False, probes=1, max_ops=12)
    assert result.failed == 0
    # twelve ops are too few to have ten beyond the 99th percentile
    assert [p for p in result.problems if not _p99_shortfall(p)] == []
    assert any(_p99_shortfall(p) for p in result.problems)
    assert result.attempted == 12
    assert _units(result.metrics) == perfbench.units("end_to_end")
    assert result.extra["fail_ratio"] == (0.0, "ratio")
    assert all(value > 0 for value, _unit in result.metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    result = perfbench.run(name, 3, 0, True, probes=0, max_ops=8)
    assert result.correct, result.problems
    assert result.attempted == 16
    assert _units(result.metrics) == perfbench.units("per_layer")
    assert result.metrics["bench.unattributed_share"][0] < 0.5


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_and_remainder_add_up_and_originals_return(name):
    workload, _modelled, failed = perfbench.setup(name, 5)
    assert failed == 0
    before = patch_sites(workload.network)
    trace = LayerTrace()
    trace.install(workload.network)
    try:
        assert patch_sites(workload.network) != before
        window = perfbench.timed_window(
            workload, 0, perfbench.PASS_CYCLES, max_ops=10, runner=trace.run_op)
    finally:
        trace.uninstall()
    after = patch_sites(workload.network)
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert window.failed == 0
    self_ns = trace.self_times_ns()
    # layer self times plus the unattributed remainder are the traced op time
    assert sum(self_ns.values()) == sum(trace.op_times_ns())
    assert len(trace.op_times_ns()) == 10
    assert set(self_ns) <= {OP, *ENTRY_POINTS}


def test_a_missing_entry_point_fails_and_an_unloaded_module_is_skipped(monkeypatch):
    workload, _modelled, _failed = perfbench.setup("soap-echo", 1)
    monkeypatch.setitem(ENTRY_POINTS, "portal", ("repro.no_such_module:Thing.run",))
    trace = LayerTrace()
    trace.install(workload.network)
    trace.uninstall()

    monkeypatch.setitem(ENTRY_POINTS, "portal", ("repro.xmlutil.element:no_such_func",))
    with pytest.raises(LookupError, match="no_such_func"):
        LayerTrace().install(workload.network)
    monkeypatch.setitem(
        ENTRY_POINTS, "soap.server", ("route:repro.soap.server:SoapService.gone",))
    with pytest.raises(LookupError, match="SoapService.gone"):
        LayerTrace().attach(workload.network)


def test_trace_follows_a_portal_session_into_its_fresh_stack(monkeypatch):
    from workloads import PortalShellWorkload

    # sessions of 3 cycles: the pass is cycles 0-1, and the traced window
    # (after 24 untraced ops) starts cycle 3 on a freshly deployed portal
    monkeypatch.setattr(PortalShellWorkload, "SESSION_CYCLES", 3)
    result = perfbench.run("portal-shell", 3, 0, True, probes=0, max_ops=24)
    assert result.correct, result.problems
    assert result.metrics["services.self_us"][0] > 0
    assert result.metrics["grid.self_us"][0] > 0


def test_module_level_bindings_are_wrapped_where_callers_look():
    import repro.soap.encoding
    import repro.soap.message
    import repro.soap.server
    import repro.xmlutil.element

    workload, _modelled, _failed = perfbench.setup("soap-echo", 1)
    parse, decode = repro.xmlutil.element.parse_xml, repro.soap.encoding.decode_value
    trace = LayerTrace()
    trace.install(workload.network)
    try:
        # soap.message and soap.server bound these names at import time
        assert repro.soap.message.parse_xml is repro.xmlutil.element.parse_xml
        assert repro.soap.message.parse_xml is not parse
        assert repro.soap.server.decode_value is repro.soap.encoding.decode_value
        assert repro.soap.server.decode_value is not decode
    finally:
        trace.uninstall()
    assert repro.soap.message.parse_xml is parse
    assert repro.soap.server.decode_value is decode


def test_host_scaling_cancels_a_slow_host_and_keeps_every_op():
    cycles, durations = [], []
    for i in range(100):
        # cycles 50-99 ran while the host was 2x slower; every other cycle
        # has two ops 10x slower than the rest
        host = 2 if i >= 50 else 1
        ops = [100 * host] * 62 + [(1000 if i % 2 else 100) * host] * 2
        cycles.append(perfbench.Cycle(len(durations), len(durations) + 64,
                                      sum(ops), perfbench.REFERENCE_NS * host))
        durations += ops
    window = perfbench.Window(durations, 0, cycles)
    scaled_ns, total_ns = window.scaled()
    assert sorted(set(scaled_ns)) == [100, 1000]
    # every op counts: 100 of 6400 are slow, so p99 is slow
    assert len(scaled_ns) == 6400
    assert sorted(scaled_ns)[perfbench.nearest_rank(6400, 99) - 1] == 1000
    assert total_ns == sum(scaled_ns)
    assert window.drift() == 1


def test_a_thread_beside_the_program_makes_the_run_incorrect():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        result = perfbench.run("soap-echo", 3, 0, True, probes=0, max_ops=8)
    finally:
        stop.set()
        thread.join()
    assert result.failed == 0
    assert [p for p in result.problems if "thread" in p] == result.problems != []


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_modelled_metrics(name):
    first = perfbench.setup(name, 7)[1]
    assert perfbench.setup(name, 7)[1] == first
    assert perfbench.setup(name, 8)[1] != first


def test_probe_under_another_hash_seed_agrees():
    child = perfbench.probe("soap-echo", 7, hash_seed=11)
    assert child["failed"] == 0
    assert child["modelled"] == perfbench.setup("soap-echo", 7)[1]
    assert child["setup_s"] > 0


def test_expected_fault_counts_as_success_and_unexpected_raise_as_failure():
    from workloads import Op

    def missing():
        from repro.faults import ResourceNotFoundError

        raise ResourceNotFoundError("gone")

    assert perfbench.run_op(Op(missing, lambda r: True, "Portal.ResourceNotFound"))[1]
    assert not perfbench.run_op(Op(missing, lambda r: True))[1]
    assert not perfbench.run_op(Op(lambda: "ok", lambda r: True, "Portal.ResourceNotFound"))[1]
    assert not perfbench.run_op(Op(lambda: "ok", lambda r: r == "no"))[1]


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [*SPEC["command"], "--workload", "soap-echo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
