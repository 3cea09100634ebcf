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

import itertools
import re
from dataclasses import dataclass

#: the HTTP header carrying the caller's trace context
TRACEPARENT = "Traceparent"

#: a W3C version-00 ``Traceparent``: lowercase hex trace id (32 digits) and
#: parent id (16 digits), neither all zeros, and two hex flag digits
_TRACEPARENT = re.compile(
    r"00-(?!0{32})([0-9a-f]{32})-(?!0{16})([0-9a-f]{16})-[0-9a-f]{2}"
).fullmatch


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

        ``00-<trace id>-<parent span id>-<flags>`` in the W3C form (see
        ``_TRACEPARENT``); any other value is ignored, so the request
        starts a fresh trace: observability headers must never break a
        call, nor let a caller name a trace no tracer could have minted.
        """
        match = _TRACEPARENT(value)
        return None if match is None else TraceContext(match[1], match[2])


def traceparent(trace_id: str, span_id: str) -> str:
    """The ``Traceparent`` encoding of a trace context.

    One dict entry on the HTTP request instead of an XML header element or
    a payload field: propagating causality must not grow the message the
    server has to parse on every dispatch.
    """
    return f"00-{trace_id}-{span_id}-01"


#: splitmix64-style constants: the odd multiplier folding the allocation
#: count (bijective modulo 2**64, so ids never collide), the per-chunk salts
#: and the finalizer's multiplier
_MIX = 0x9E3779B97F4A7C15
_SALT_1 = 0x85EBCA77C2B2AE63
_SALT_2 = 2 * 0x85EBCA77C2B2AE63
_FINAL = 0x94D049BB133111EB
_M64 = 0xFFFFFFFFFFFFFFFF


class IdGenerator:
    """Deterministic trace/span id generation.

    One shared counter is folded through a fixed odd multiplier (a bijection
    modulo the id width, so ids never collide) and xored with the seed, so
    ids *look* opaque but depend only on (seed, allocation order).  Two runs
    with the same seed and the same call sequence mint identical ids — the
    property the chaos determinism tests assert.

    A 64-bit chunk of an id is ``finalize(((count * MIX + salt) & M64) ^
    seed_mix)``; a span id is chunk 1 of its count, a trace id chunks 1 and
    2.  Span ids are minted as integers — ``allocate()`` takes the next
    count — and hashed to hex by :meth:`span_hex` only when one is read:
    a traced SOAP call reads one of its three span ids (for the
    ``Traceparent`` header), and the tail sampler exports few spans.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed & _M64
        # the seed's contribution to every chunk is fixed — folded once
        # here instead of once per minted id
        self._seed_mix = (self.seed * 0xC2B2AE3D27D4EB4F) & _M64
        #: the next allocation count: a span id, minted but not hashed
        #: (a C-level counter — the tracer takes one per span)
        self.allocate = itertools.count(1).__next__

    def span_hex(self, count: int) -> str:
        """The 64-bit span id of allocation *count*: chunk 1, 16 hex digits."""
        v = ((count * _MIX + _SALT_1) & _M64) ^ self._seed_mix
        v = ((v ^ (v >> 31)) * _FINAL) & _M64
        return "%016x" % (v ^ (v >> 29))

    def trace_id(self) -> str:
        """A fresh 128-bit trace id: chunks 1 and 2, 32 hex digits."""
        mixed = self.allocate() * _MIX
        seed_mix = self._seed_mix
        high = ((mixed + _SALT_1) & _M64) ^ seed_mix
        high = ((high ^ (high >> 31)) * _FINAL) & _M64
        low = ((mixed + _SALT_2) & _M64) ^ seed_mix
        low = ((low ^ (low >> 31)) * _FINAL) & _M64
        return "%016x%016x" % (high ^ (high >> 29), low ^ (low >> 29))
