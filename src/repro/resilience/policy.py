"""Retry policies and call deadlines.

The paper's interoperability story (one WSDL interface, many providers) only
pays off for *availability* if clients know when and how to try again.  This
module supplies the two time-domain primitives everything else builds on:

- :class:`RetryPolicy` — bounded exponential backoff with deterministic
  jitter.  Backoff advances the shared :class:`~repro.transport.clock.SimClock`
  instead of sleeping, so resilience behaviour is measured in virtual seconds
  and is exactly reproducible.
- :class:`Deadline` — an absolute point in virtual time by which the caller
  needs an answer.  It rides on every SOAP request as a header entry so
  servers can shed work whose caller has already given up (§3's common
  error vocabulary gives the shed a standard code: ``Portal.DeadlineExceeded``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.faults import PortalError
from repro.headers import register_header
from repro.transport.clock import SimClock
from repro.transport.network import TransportError
from repro.xmlutil.element import XmlElement
from repro.xmlutil.qname import QName

RESILIENCE_NS = "urn:gce:resilience"

#: the SOAP header entry carrying the caller's absolute deadline
DEADLINE_HEADER = QName(RESILIENCE_NS, "Deadline")
register_header(
    DEADLINE_HEADER,
    description="absolute virtual-time deadline for the whole call chain",
    module=__name__,
)


def is_retryable(exc: BaseException) -> bool:
    """Classify an exception under the common vocabulary.

    Transport-level failures (host down, injected fault, partition, open
    breaker) are always retryable — possibly against another provider.
    Portal errors carry their own classification (``PortalError.retryable``);
    everything else (programming errors, SOAP faults without a portal code)
    is terminal.
    """
    if isinstance(exc, TransportError):
        return True
    if isinstance(exc, PortalError):
        return exc.retryable
    return False


@dataclass(frozen=True)
class Deadline:
    """An absolute virtual-time deadline."""

    at: float

    @staticmethod
    def after(clock: SimClock, timeout: float) -> "Deadline":
        """The deadline *timeout* virtual seconds from now."""
        return Deadline(clock.now + float(timeout))

    def remaining(self, clock: SimClock) -> float:
        return self.at - clock.now

    def expired(self, clock: SimClock) -> bool:
        return clock.now >= self.at

    def to_header(self) -> XmlElement:
        """Encode as the SOAP header entry servers look for."""
        return XmlElement(DEADLINE_HEADER, text=repr(self.at))

    @staticmethod
    def from_headers(headers: list[XmlElement]) -> "Deadline | None":
        """Decode the deadline header if present (malformed values, NaN
        among them, are ignored — resilience headers must never break a
        call)."""
        for entry in headers:
            if entry.tag == DEADLINE_HEADER:
                try:
                    at = float(entry.text)
                except (TypeError, ValueError):
                    return None
                # NaN compares false against every time: such a deadline
                # would never expire and pass every hop-budget check
                return None if math.isnan(at) else Deadline(at)
        return None


# -- the inbound-budget stack ------------------------------------------------
#
# While a SOAP server dispatches a request that carried a deadline header,
# that deadline is the *enclosing budget* for every nested call the handler
# makes.  The server pushes it here around dispatch (see
# repro.soap.server.SoapService); nested clients inherit it when the caller
# gave them no explicit timeout, and every deeper hop is checked against it:
# an inbound deadline *later* than the enclosing one means a stale budget
# was propagated, which raises the terminal ``Portal.BudgetViolation``.

_INBOUND_DEADLINES: list[Deadline] = []

#: single-slot observer of every checked hop; the simtest deadline-budget
#: oracle installs one.  ``listener(record)`` receives a dict with the
#: service/method and the enclosing/inbound absolute deadlines.
_HOP_LISTENER = None

#: tolerance for float round-trips through the header encoding
_BUDGET_EPSILON = 1e-9


def set_hop_listener(listener) -> None:
    """Install (or clear, with ``None``) the deadline-hop observer."""
    global _HOP_LISTENER
    _HOP_LISTENER = listener


def push_inbound_deadline(deadline: Deadline) -> None:
    """Enter a dispatch whose request carried *deadline*."""
    _INBOUND_DEADLINES.append(deadline)


def pop_inbound_deadline() -> None:
    """Leave the innermost deadline-carrying dispatch."""
    if _INBOUND_DEADLINES:
        _INBOUND_DEADLINES.pop()


def current_inbound_deadline() -> Deadline | None:
    """The innermost in-flight request deadline, if any (the budget every
    nested call made by the current handler must fit inside)."""
    return _INBOUND_DEADLINES[-1] if _INBOUND_DEADLINES else None


def check_hop_budget(
    inbound: Deadline, *, clock: SimClock, service: str = "", method: str = ""
) -> None:
    """Enforce the monotone-budget invariant for one inbound hop.

    Inside an enclosing dispatch, the nested request's absolute deadline
    may only be earlier than (or equal to) the enclosing one — wire time
    already makes the *remaining* budget strictly decrease.  A later
    deadline is a stale/forged budget: raise the classified, terminal
    ``Portal.BudgetViolation`` instead of silently working past the point
    the original caller gave up.
    """
    enclosing = current_inbound_deadline()
    if _HOP_LISTENER is not None:
        _HOP_LISTENER({
            "service": service,
            "method": method,
            "enclosing_at": enclosing.at if enclosing is not None else None,
            "inbound_at": inbound.at,
            "now": clock.now,
        })
    if enclosing is None:
        return
    if inbound.at > enclosing.at + _BUDGET_EPSILON:
        from repro.faults import BudgetViolationError

        raise BudgetViolationError(
            f"hop {method!r} arrived with deadline {inbound.at!r} later than "
            f"its enclosing budget {enclosing.at!r}: stale budget propagated",
            {
                "method": method,
                "service": service,
                "inbound": repr(inbound.at),
                "enclosing": repr(enclosing.at),
            },
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means at most
    two retries.  The delay before retry *n* (0-based) is
    ``min(max_delay, base_delay * multiplier**n)`` scaled by ``1 ± U(0,
    jitter)`` drawn from the caller's seeded PRNG, so two runs with the same
    seed back off identically.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self, retry: int, rng: random.Random | None = None) -> float:
        """The delay (virtual seconds) before 0-based retry number *retry*."""
        delay = min(self.max_delay, self.base_delay * self.multiplier**retry)
        if self.jitter and rng is not None:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)

    def retries_remaining(self, attempts_made: int) -> bool:
        return attempts_made < self.max_attempts


#: a policy that never retries — the seed behaviour, for opting out
NO_RETRY = RetryPolicy(max_attempts=1, base_delay=0.0, jitter=0.0)
