"""The SAML verification cache: TTL, expiry bounds, targeted invalidation.

The unit tests drive :class:`AssertionCache` directly on the virtual
clock; the integration tests wire it into an :class:`AssertionInterceptor`
in front of a real Authentication Service and count the verification round
trips it saves — and the ones it must *not* save (revocation, expiry).
"""

import pytest

from repro.faults import AuthenticationError
from repro.security.assertioncache import PURGE_FLOOR, AssertionCache
from repro.security.authservice import (
    AssertionInterceptor,
    ClientSecuritySession,
    deploy_auth_service,
)
from repro.security.kerberos import Kdc
from repro.soap.client import SoapClient
from repro.soap.server import SoapService
from repro.transport.server import HttpServer


@pytest.fixture
def cache(network):
    return AssertionCache(network.clock, ttl=100.0)


def test_put_get_roundtrip_and_stats(network, cache):
    assert cache.get("alice", "a1") is None  # miss on empty
    entry = cache.put("alice", "a1", "alice")
    assert entry.expires == network.clock.now + 100.0
    hit = cache.get("alice", "a1")
    assert hit is entry and hit.subject == "alice"
    assert cache.stats() == {
        "entries": 1, "hits": 1, "misses": 1, "invalidations": 0,
    }


def test_entries_expire_on_the_clock(network, cache):
    cache.put("alice", "a1", "alice")
    network.clock.advance(99.9)
    assert cache.get("alice", "a1") is not None
    network.clock.advance(0.2)
    assert cache.get("alice", "a1") is None  # expired ⇒ evicted
    assert len(cache) == 0


def test_assertion_expiry_caps_the_ttl(network, cache):
    # the cache must never outlive the credential it vouches for
    entry = cache.put("alice", "a1", "alice", expires=network.clock.now + 5.0)
    assert entry.expires == network.clock.now + 5.0
    network.clock.advance(6.0)
    assert cache.get("alice", "a1") is None


def test_key_includes_principal(network, cache):
    # a cached assertion id must never vouch for a different subject
    cache.put("alice", "shared-id", "alice")
    assert cache.get("eve", "shared-id") is None
    assert cache.get("alice", "shared-id") is not None


def test_targeted_invalidation(network, cache):
    cache.put("alice", "a1", "alice")
    cache.put("alice", "a2", "alice")
    cache.put("bob", "b1", "bob")
    assert cache.invalidate("alice", "a1")
    assert not cache.invalidate("alice", "a1")  # already gone
    assert cache.invalidate_principal("alice") == 1
    assert cache.get("bob", "b1") is not None  # bob untouched
    assert cache.stats()["invalidations"] == 2


def test_purge_expired_sweeps_only_the_dead(network, cache):
    cache.put("alice", "a1", "alice", expires=network.clock.now + 1.0)
    cache.put("bob", "b1", "bob")
    network.clock.advance(2.0)
    assert cache.purge_expired() == 1
    assert len(cache) == 1


def test_puts_alone_keep_the_cache_bounded(network, cache):
    # a per-call assertion is put once and never read again, so only put
    # can evict it: over 10 TTLs the cache stays within twice its live set
    put_at = []
    for i in range(1000):
        cache.put("alice", f"a{i}", "alice")
        put_at.append(network.clock.now)
        live = sum(1 for t in put_at if network.clock.now < t + cache.ttl)
        assert len(cache) <= max(2 * live, PURGE_FLOOR)
        network.clock.advance(1.0)


# -- interceptor integration -------------------------------------------------


@pytest.fixture
def spp(network):
    kdc = Kdc("REALM", network.clock)
    kdc.add_user("alice", "alpine")
    auth, auth_url = deploy_auth_service(network, kdc, assertion_lifetime=50.0)
    server = HttpServer("spp.host", network)
    svc = SoapService("prot", "urn:prot")
    svc.expose(lambda: "ok", "ping")
    interceptor = AssertionInterceptor(
        network, auth_url, spp_host="spp.host",
        clock=network.clock, cache=True, cache_ttl=300.0,
    )
    svc.add_interceptor(interceptor)
    url = svc.mount(server)

    session = ClientSecuritySession(
        network, kdc, auth_url, ui_host="ui.host", assertion_lifetime=50.0
    )
    session.login("alice", "alpine")
    client = SoapClient(network, url, "urn:prot", source="ui.host")
    assertion = session.make_assertion()
    client.add_header_provider(lambda m, p: [assertion.to_xml()])
    return auth, interceptor, client


def test_cache_hit_skips_the_verify_round_trip(network, spp):
    auth, interceptor, client = spp
    for _ in range(4):
        assert client.ping() == "ok"
    assert auth.verifications == 1  # one hop, three cache hits
    assert interceptor.verified_calls == 1
    assert interceptor.cache_hits == 3


def test_invalidate_principal_forces_reverification(network, spp):
    auth, interceptor, client = spp
    client.ping()
    assert interceptor.invalidate_principal("alice") == 1
    client.ping()
    assert auth.verifications == 2  # the revocation bypassed the cache
    assert interceptor.invalidate_principal("nobody") == 0


def test_cached_entry_honors_assertion_expiry(network, spp):
    auth, interceptor, client = spp
    client.ping()
    # cache TTL is 300 s but the assertion itself dies at 50 s; past that
    # the cache must re-verify — and the authority rejects the stale proof
    network.clock.advance(60.0)
    with pytest.raises(AuthenticationError):
        client.ping()
    assert auth.verifications == 2
    assert interceptor.cache_hits == 0
