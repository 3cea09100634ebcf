"""The collector: views, deterministic export, and its SOAP face — plus the
client/server auto-instrumentation that fills it."""

import json

import pytest

from repro.faults import InvalidRequestError
from repro.observability import deploy_trace_collector
from repro.soap.client import SoapClient


def test_soap_call_produces_a_nested_trace(obs, echo_stack):
    _, client = echo_stack
    assert client.call("shout", "hi") == "HI"
    spans = obs.collector.spans()
    # finish order: server span, then the client attempt, then the logical call
    assert [s["name"] for s in spans] == ["shout", "shout", "call shout"]
    server, attempt, logical = spans
    assert {s["trace_id"] for s in spans} == {server["trace_id"]}
    assert server["kind"] == "server" and server["service"] == "Echo"
    assert server["host"] == "echo.example.org"
    assert server["parent_id"] == attempt["span_id"]
    assert attempt["parent_id"] == logical["span_id"]
    assert logical["parent_id"] == ""
    # the server span nests strictly inside the attempt (wire time both ways)
    assert attempt["start"] < server["start"] <= server["end"] < attempt["end"]


def test_red_metrics_recorded_both_sides(obs, echo_stack):
    _, client = echo_stack
    client.call("shout", "hi")
    with pytest.raises(InvalidRequestError):
        client.call("reject", "hi")
    red = {
        (r["service"], r["method"], r["side"]): r
        for r in obs.metrics.summary()["red"]
    }
    server_ok = red[("Echo", "shout", "server")]
    server_bad = red[("Echo", "reject", "server")]
    assert server_ok["errors"] == 0 and server_ok["requests"] == 1
    assert server_bad["errors"] == 1
    # the client saw the fault too, under its service name (the endpoint)
    client_bad = red[(client.service_name, "reject", "client")]
    assert client_bad["errors"] == 1
    # wire latency is client-visible (the handler itself runs in zero
    # virtual time, so only the client-side mean includes transit)
    assert red[(client.service_name, "shout", "client")]["mean_ms"] > 0


def test_fault_code_lands_on_both_spans(obs, echo_stack):
    _, client = echo_stack
    with pytest.raises(InvalidRequestError):
        client.call("reject", "x")
    by_kind = {}
    for span in obs.collector.spans():
        by_kind.setdefault(span["kind"], []).append(span)
    assert all(s["error"] == "Portal.InvalidRequest" for s in by_kind["server"])
    assert all(s["error"] == "Portal.InvalidRequest" for s in by_kind["client"])


def test_untraced_network_is_seed_identical(network, echo_stack):
    # no bundle installed: no headers on the wire, nothing collected
    service, client = echo_stack
    assert client.call("shout", "ok") == "OK"
    assert getattr(network, "observability", None) is None
    assert service.calls_served == 1


def test_traced_false_opts_a_client_out(obs, echo_stack, network):
    _, client = echo_stack
    quiet = SoapClient(
        network, client.endpoint, client.namespace, source="dash", traced=False
    )
    assert quiet.call("shout", "sh") == "SH"
    # the server is still traced (its own span, a fresh root), but the quiet
    # client neither spans nor propagates
    spans = obs.collector.spans()
    assert [s["kind"] for s in spans] == ["server"]
    assert spans[0]["parent_id"] == ""


def test_traces_summary_and_tree(obs, echo_stack):
    _, client = echo_stack
    client.call("shout", "one")
    client.call("shout", "two")
    rows = obs.collector.traces()
    assert len(rows) == 2
    assert all(row["root"] == "call shout" for row in rows)
    assert all(row["spans"] == 3 and row["errors"] == 0 for row in rows)
    tree = obs.collector.tree(rows[0]["trace_id"])
    assert [(r["name"], r["depth"]) for r in tree] == [
        ("call shout", 0), ("shout", 1), ("shout", 2)
    ]


def test_to_json_is_deterministic_jsonl(obs, echo_stack):
    _, client = echo_stack
    client.call("shout", "x")
    text = obs.collector.to_json()
    lines = text.splitlines()
    assert len(lines) == 3
    parsed = [json.loads(line) for line in lines]
    assert all(list(p) == sorted(p) for p in parsed)  # sort_keys
    assert text == obs.collector.to_json()


def test_collector_service_soap_face(obs, echo_stack, network):
    _, client = echo_stack
    client.call("shout", "x")
    impl, url = deploy_trace_collector(network, obs.collector)
    reader = SoapClient(
        network, url, "urn:gce:trace-collector", source="tool", traced=False
    )
    count_before = reader.call("span_count")
    assert count_before == 3
    rows = reader.call("traces")
    tree = reader.call("trace_tree", rows[0]["trace_id"])
    assert [r["depth"] for r in tree] == [0, 1, 2]
    # the collector service never traces itself: reading added no spans
    assert len(obs.collector) == count_before
    # remote span reporting
    total = reader.call("report", {
        "trace_id": "t" * 32, "span_id": "s" * 16, "parent_id": "",
        "name": "remote", "kind": "internal", "service": "ext", "host": "ext",
        "start": 0.0, "end": 1.0, "error": "", "attributes": {}, "events": [],
    })
    assert total == 4 and impl.span_count() == 4


# -- ring-buffer retention (bounded soaks, evict-oldest whole traces) ---------

from repro.observability import Observability, TraceCollector  # noqa: E402
from repro.observability.tracer import Span  # noqa: E402
from repro.transport.clock import SimClock  # noqa: E402


def _span_dict(trace_id, span_id, parent_id=""):
    return {
        "trace_id": trace_id, "span_id": span_id, "parent_id": parent_id,
        "name": "op", "kind": "server", "service": "S", "host": "h",
        "start": 0.0, "end": 1.0, "error": "", "attributes": {}, "events": [],
    }


def test_ring_capacity_evicts_oldest_whole_traces():
    ring = TraceCollector(capacity=4)
    for tid in ("t1", "t2", "t3"):
        ring.export(_span_dict(tid, f"{tid}-root"))
        ring.export(_span_dict(tid, f"{tid}-child", f"{tid}-root"))
    # t3's first span pushed the count to 5 > 4: t1 went, whole
    assert ring.trace_ids() == ["t2", "t3"]
    assert len(ring) == 4
    assert ring.trace_evictions == 1
    assert ring.spans_evicted == 2


def test_eviction_never_splits_the_trace_being_exported():
    ring = TraceCollector(capacity=1)
    ring.export(_span_dict("t1", "a"))
    ring.export(_span_dict("t1", "b", "a"))  # same trace: overflow tolerated
    assert len(ring) == 2
    assert ring.trace_evictions == 0
    ring.export(_span_dict("t2", "c"))  # next trace evicts the old one
    assert ring.trace_ids() == ["t2"]
    assert ring.trace_evictions == 1 and ring.spans_evicted == 2


def test_zero_capacity_is_unbounded():
    store = TraceCollector(capacity=0)
    for i in range(100):
        store.export(_span_dict(f"t{i}", f"s{i}"))
    assert len(store) == 100 and store.trace_evictions == 0


def test_eviction_accounting_feeds_the_gauges():
    obs = Observability(SimClock(), collector_capacity=2)
    for i in range(4):
        obs.collector.export(_span_dict(f"t{i}", f"s{i}"))
    gauges = obs.metrics.gauges
    assert gauges[("collector_evictions", "traces")] == obs.collector.trace_evictions
    assert gauges[("collector_evictions", "spans")] == obs.collector.spans_evicted
    assert obs.collector.trace_evictions == 2
    summary = {
        (row["gauge"], row["label"]): row["value"]
        for row in obs.metrics.summary()["gauges"]
    }
    assert summary[("collector_evictions", "traces")] == 2.0


def test_full_ring_leaves_unread_spans_unread():
    """Eviction reads each span's trace id, not its dict form: a full ring
    holds the spans it was handed until a view reads them."""
    def feed(collector, as_dicts):
        # five traces, each a child span and then its root; the second and
        # third traces finish interleaved
        order = ["t0", "t0", "t1", "t2", "t1", "t2", "t3", "t3", "t4", "t4"]
        started = {}
        for i, tid in enumerate(order):
            if tid in started:
                span = Span(tid, f"{tid}-root", "", "op", "server", "S", "h",
                            started[tid], i + 1.0)
            else:
                started[tid] = i
                span = Span(tid, f"{tid}-child", f"{tid}-root", "op", "server",
                            "S", "h", i, i + 0.5)
            collector.export(span.to_dict() if as_dicts else span)
        return collector

    ring = feed(TraceCollector(capacity=6), as_dicts=False)
    assert all(type(span) is Span for span in ring._spans)
    dicts = feed(TraceCollector(capacity=6), as_dicts=True)
    assert ring.to_json() == dicts.to_json()
    assert (ring.trace_evictions, ring.spans_evicted) == (2, 4)
    assert (dicts.trace_evictions, dicts.spans_evicted) == (2, 4)
    # read spans stay read: a later eviction keeps the dicts it holds
    ring.export(Span("t5", "s10", "", "op", "server", "S", "h", 10, 11.0))
    assert [type(span) for span in ring._spans] == [dict] * 4 + [Span]
    assert ring.trace_ids() == ["t3", "t4", "t5"]
