"""The SAML assertion verification cache (the GridCertLib pattern).

§4's protocol forwards every request's assertion to the Authentication
Service — an extra round trip per call that becomes the bottleneck the
moment calls cross regions.  The fix GridCertLib applies to SSO
credentials works here too: a verification is a *fact with an expiry*
("this assertion, for this principal, is valid until NotOnOrAfter"), so it
can be cached on the virtual clock and re-used until the earlier of the
cache TTL and the assertion's own expiry.

Entries are keyed on ``(principal, assertion id)`` — an assertion id alone
is not enough, because a forged assertion could reuse a cached id with a
different subject — and the cache supports targeted invalidation: when a
user's ticket is revoked or their session ends, every cached verification
for that principal dies with it.

The cache is bounded.  An assertion minted per call is never looked up
again, so :meth:`AssertionCache.get` alone would never evict it.
:meth:`AssertionCache.put` sweeps out expired entries whenever the cache
has doubled since its last sweep.  That costs O(1) amortized per put, and
the cache holds fewer than twice the entries live at the last sweep, or
PURGE_FLOOR when that is more.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the fewest entries a cache holds before put sweeps out expired ones
PURGE_FLOOR = 64


@dataclass
class CachedVerification:
    """One positive verification: who it proved, until when."""

    principal: str
    assertion_id: str
    subject: str
    expires: float


class AssertionCache:
    """TTL cache of positive assertion verifications on the virtual clock.

    Only *positive* results are cached — a rejection must be re-checked
    every time, since the authoritative service may accept it later (clock
    skew) and caching denials would turn a blip into a lockout.
    """

    def __init__(self, clock, *, ttl: float = 300.0):
        self.clock = clock
        self.ttl = ttl
        self._entries: dict[tuple[str, str], CachedVerification] = {}
        #: the size at which the next put sweeps out expired entries
        self._purge_at = PURGE_FLOOR
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, principal: str, assertion_id: str) -> CachedVerification | None:
        """The live cached verification, or ``None`` (expired ⇒ evicted)."""
        key = (principal, assertion_id)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if self.clock.now >= entry.expires:
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        principal: str,
        assertion_id: str,
        subject: str,
        *,
        expires: float | None = None,
    ) -> CachedVerification:
        """Cache a positive verification.

        The entry lives until the earlier of ``now + ttl`` and the
        assertion's own ``NotOnOrAfter`` (*expires*) — a cache must never
        outlive the credential it vouches for.
        """
        bound = self.clock.now + self.ttl
        if expires is not None:
            bound = min(bound, float(expires))
        entry = CachedVerification(principal, assertion_id, subject, bound)
        self._entries[(principal, assertion_id)] = entry
        if len(self._entries) >= self._purge_at:
            self.purge_expired()
            self._purge_at = max(2 * len(self._entries), PURGE_FLOOR)
        return entry

    def invalidate(self, principal: str, assertion_id: str) -> bool:
        """Drop one cached verification; True when something was dropped."""
        dropped = self._entries.pop((principal, assertion_id), None) is not None
        if dropped:
            self.invalidations += 1
        return dropped

    def invalidate_principal(self, principal: str) -> int:
        """Drop every cached verification for *principal* (ticket expiry,
        logout, revocation); returns how many died."""
        doomed = [key for key in sorted(self._entries) if key[0] == principal]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def purge_expired(self) -> int:
        """Evict every entry past its expiry; returns how many died."""
        now = self.clock.now
        doomed = [
            key for key, entry in self._entries.items() if now >= entry.expires
        ]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }
