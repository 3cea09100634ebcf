"""Trace context: the ``Traceparent`` wire form and deterministic id
minting."""

import pytest

from repro.observability.context import (
    TRACEPARENT,
    IdGenerator,
    TraceContext,
    traceparent,
)
from repro.observability.runtime import Observability
from repro.soap.message import request_envelope
from repro.soap.server import SoapService
from repro.transport.http import HttpRequest, parse_url
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer


class TestTraceparent:
    def test_round_trip(self):
        ctx = TraceContext("0f" * 16, "1e" * 8)
        value = traceparent(ctx.trace_id, ctx.span_id)
        assert value == f"00-{'0f' * 16}-{'1e' * 8}-01"
        assert TraceContext.from_traceparent(value) == ctx

    @pytest.mark.parametrize(
        "value", ["", "00-abc", "00--b-01", "00-a--01", "00-a-b-01-extra"]
    )
    def test_malformed_value_is_ignored(self, value):
        assert TraceContext.from_traceparent(value) is None

    @pytest.mark.parametrize("value", [
        "00-../../x-y-01",
        f"zz-{'a' * 5000}-{'b' * 16}-01",
        f"01-{'a' * 32}-{'b' * 16}-01",
        f"ff-{'a' * 32}-{'b' * 16}-01",
        f"00-{'0' * 32}-{'b' * 16}-01",
        f"00-{'a' * 32}-{'0' * 16}-01",
        f"00-{'A' * 32}-{'b' * 16}-01",
        f"00-{'a' * 32}-{'B' * 16}-01",
        f"00-{'a' * 31}-{'b' * 16}-01",
        f"00-{'a' * 33}-{'b' * 16}-01",
        f"00-{'a' * 32}-{'b' * 15}-01",
        f"00-{'a' * 32}-{'b' * 16}-1",
        f"00-{'a' * 32}-{'b' * 16}-0g",
        f"00-{'a' * 32}-{'b' * 16}-01\n",
        f" 00-{'a' * 32}-{'b' * 16}-01",
        f"00-{'g' * 32}-{'b' * 16}-01",
        "00-" + "\u0661" * 32 + "-" + "b" * 16 + "-01",
    ], ids=[
        "path-like", "huge-bad-version", "version-01", "version-ff",
        "zero-trace", "zero-parent", "upper-trace", "upper-parent",
        "short-trace", "long-trace", "short-parent", "one-flag-digit",
        "non-hex-flags", "trailing-newline", "leading-space",
        "non-hex-trace", "arabic-indic-digits",
    ])
    def test_hostile_value_starts_a_fresh_trace(self, value):
        assert TraceContext.from_traceparent(value) is None

    def test_any_flags_are_accepted(self):
        value = f"00-{'0f' * 16}-{'1e' * 8}-00"
        assert TraceContext.from_traceparent(value) == TraceContext(
            "0f" * 16, "1e" * 8
        )

    def test_server_ignores_a_hostile_traceparent(self):
        network = VirtualNetwork()
        obs = Observability.install(network, seed=3)
        service = SoapService("Echo", "urn:echo")
        service.expose(lambda text: text, name="echo")
        url = service.mount(HttpServer("echo.example", network), "/echo")
        body = request_envelope("urn:echo", "echo", ["x"]).serialize()
        headers = {TRACEPARENT: "00-../../x-y-01"}
        service.handle_http(HttpRequest("POST", parse_url(url), headers, body))
        (span,) = obs.collector.spans()
        assert span["parent_id"] == ""
        assert span["trace_id"] != "../../x"
        assert len(span["trace_id"]) == 32


class TestIdGenerator:
    def test_widths_and_alphabet(self):
        ids = IdGenerator(seed=1)
        trace, span = ids.trace_id(), ids.span_hex(ids.allocate())
        assert len(trace) == 32 and len(span) == 16
        assert set(trace + span) <= set("0123456789abcdef")

    def test_same_seed_same_sequence(self):
        a, b = IdGenerator(seed=42), IdGenerator(seed=42)
        assert [a.trace_id() for _ in range(5)] == [b.trace_id() for _ in range(5)]
        assert [a.span_hex(a.allocate()) for _ in range(5)] == [
            b.span_hex(b.allocate()) for _ in range(5)
        ]

    def test_different_seeds_differ(self):
        assert IdGenerator(seed=1).trace_id() != IdGenerator(seed=2).trace_id()

    def test_no_collisions_in_a_long_run(self):
        ids = IdGenerator(seed=0)
        minted = [ids.span_hex(ids.allocate()) for _ in range(500)]
        minted += [ids.trace_id() for _ in range(500)]
        assert len(set(minted)) == len(minted)

    def test_ids_fill_their_width(self):
        # the splitmix-style finalizer must spread small counters across all
        # 128 bits — no run of leading zeros betraying the counter
        ids = IdGenerator(seed=0)
        assert all(ids.trace_id()[:8] != "0" * 8 for _ in range(20))
