"""Trace context: the ``Traceparent`` wire form and deterministic id
minting."""

import pytest

from repro.observability.context import IdGenerator, TraceContext, traceparent


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
