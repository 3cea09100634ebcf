"""Trace context: the identifiers that make causality portable.

The paper's architecture is a web of *composed* services — the portal calls
the batch job service, which calls the Globusrun service, which calls a GRAM
gatekeeper — and a request that crosses three hosts is only debuggable if
every hop records the same trace identity.  This module defines that
identity (:class:`TraceContext`) and its one wire form: the W3C-style
``Traceparent`` HTTP header, stamped by the SOAP and GRAM clients on every
traced request and decoded by the SOAP server and the gatekeeper.  Riding
the transport rather than the payload keeps the SOAP envelope and the GRAM
JSON body identical whether or not the request is traced.

IDs are generated by a seeded :class:`IdGenerator` — a counter folded
through a fixed odd multiplier, no ``random`` and no wall clock — so a
chaos-harness run with a fixed seed produces byte-identical traces on every
run.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the HTTP header carrying the caller's trace context
TRACEPARENT = "Traceparent"


@dataclass(slots=True)
class TraceContext:
    """The propagated identity of one distributed request.

    ``trace_id`` names the whole request tree; ``span_id`` names the
    caller's span (the receiver's parent).
    """

    trace_id: str
    span_id: str

    @staticmethod
    def from_traceparent(value: str) -> "TraceContext | None":
        """Decode the ``Traceparent`` header.

        ``00-<trace id>-<parent span id>-01`` — malformed values are
        ignored: observability headers must never break a call.
        """
        parts = value.split("-")
        if len(parts) != 4 or not parts[1] or not parts[2]:
            return None
        return TraceContext(parts[1], parts[2])


def traceparent(trace_id: str, span_id: str) -> str:
    """The ``Traceparent`` encoding of a trace context.

    One dict entry on the HTTP request instead of an XML header element or
    a payload field: propagating causality must not grow the message the
    server has to parse on every dispatch.
    """
    return f"00-{trace_id}-{span_id}-01"


class IdGenerator:
    """Deterministic trace/span id generation.

    One shared counter is folded through a fixed odd multiplier (a bijection
    modulo the id width, so ids never collide) and xored with the seed, so
    ids *look* opaque but depend only on (seed, allocation order).  Two runs
    with the same seed and the same call sequence mint identical ids — the
    property the chaos determinism tests assert.
    """

    #: odd multiplicative constant: bijective modulo 2**64
    _MIX = 0x9E3779B97F4A7C15
    _M64 = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed: int = 0):
        self.seed = seed & self._M64
        # the seed's contribution to every chunk is fixed — folded once
        # here instead of once per minted id (four ids per traced call)
        self._seed_mix = (self.seed * 0xC2B2AE3D27D4EB4F) & self._M64
        self._count = 0

    def _chunk(self, salt: int) -> int:
        # splitmix64-style finalizer over (count, seed, salt)
        v = (self._count * self._MIX + salt * 0x85EBCA77C2B2AE63) & self._M64
        v ^= self._seed_mix
        v = ((v ^ (v >> 31)) * 0x94D049BB133111EB) & self._M64
        return v ^ (v >> 29)

    def _next(self, hex_width: int) -> str:
        self._count += 1
        value = 0
        for salt in range((hex_width + 15) // 16):
            value = (value << 64) | self._chunk(salt + 1)
        mask = (1 << (4 * hex_width)) - 1
        return f"{value & mask:0{hex_width}x}"

    def trace_id(self) -> str:
        """A fresh 128-bit trace id (``_next(32)``, unrolled: every traced
        call mints one, so the generic width loop is per-call cost)."""
        self._count += 1
        return f"{(self._chunk(1) << 64) | self._chunk(2):032x}"

    def span_id(self) -> str:
        """A fresh 64-bit span id (``_next(16)``, unrolled — three per
        traced SOAP call)."""
        self._count += 1
        return f"{self._chunk(1):016x}"
