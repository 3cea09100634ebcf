"""The Figure 2 single-sign-on Authentication Service.

Protocol, as in the paper:

1. "a user logs in through a web browser and gets a Kerberos ticket on the
   User Interface (UI) server" — :meth:`ClientSecuritySession.login` runs the
   AS and TGS exchanges against the realm's KDC.
2. "This server creates a client session object that contacts the
   Authentication Service, which launches a Kerberos server in a session
   object.  The client and server then establish a GSS context ... Each of
   these objects possesses one half of the symmetric key set" — the
   ``begin_session`` SOAP call carries the GSS initiator token; both ends
   derive the shared context key from the service ticket.
3. "Subsequent user interaction generates a SOAP request that includes a
   SAML assertion that is signed by the client object on the UI server" —
   the session object is a :class:`repro.soap.SoapClient` header provider.
4. "The SPP does not check the signature of the request directly but instead
   forwards to the Authentication Service, which verifies the signature" —
   :class:`AssertionInterceptor` performs that forwarding; this whole
   round-trip is the paper's "atomic step", measured in
   ``benchmarks/test_fig2_auth.py``.

The keytab exists only inside :class:`AuthenticationService` ("limiting the
use of keytabs to a single, well secured server is desirable").
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.faults import AuthenticationError
from repro.security import crypto
from repro.security.gss import GssContext, GssError
from repro.security.kerberos import Kdc, KerberosError, Keytab
from repro.security.saml import SamlAssertion
from repro.soap.client import SoapClient
from repro.soap.message import SoapEnvelope
from repro.soap.server import SoapService
from repro.transport.network import VirtualNetwork
from repro.transport.server import HttpServer
from repro.xmlutil.element import XmlElement

AUTH_NAMESPACE = "urn:gce:authentication-service"
SERVICE_PRINCIPAL = "authsvc"

_session_ids = itertools.count(1)


class AuthenticationService:
    """Server side: holds the keytab and per-user GSS session objects."""

    def __init__(self, kdc: Kdc, *, assertion_lifetime: float = 300.0):
        self.kdc = kdc
        self.clock = kdc.clock
        self.assertion_lifetime = assertion_lifetime
        self.keytab = Keytab()
        kdc.add_service(SERVICE_PRINCIPAL, self.keytab)
        self._sessions: dict[str, GssContext] = {}
        self.verifications = 0

    # -- SOAP methods ------------------------------------------------------------

    def begin_session(self, user: str, gss_token_b64: str) -> dict[str, Any]:
        """Accept a GSS initiator token; 'launches a Kerberos server in a
        session object'.  Returns the session handle."""
        try:
            context = GssContext.accept_sec_context(
                crypto.unb64(gss_token_b64), self.keytab, now=self.clock.now
            )
        except GssError as exc:
            raise AuthenticationError(f"GSS context rejected: {exc}") from exc
        if context.initiator != user:
            raise AuthenticationError(
                f"ticket principal {context.initiator!r} does not match "
                f"claimed user {user!r}"
            )
        session_id = f"gss-session-{next(_session_ids):08d}"
        self._sessions[session_id] = context
        return {"session": session_id, "principal": context.initiator}

    def verify(
        self, session_id: str, assertion_xml: str | XmlElement
    ) -> dict[str, Any]:
        """Verify a signed assertion on behalf of an SPP (the atomic step).

        *assertion_xml* is the ``Assertion`` element, which an SPP forwards
        as an XML literal so that it arrives parsed with the request, or
        its serialized text.
        """
        self.verifications += 1
        context = self._sessions.get(session_id)
        if context is None:
            return {"valid": False, "subject": "", "reason": "unknown session"}
        try:
            assertion = SamlAssertion.from_xml(assertion_xml)
        except ValueError as exc:
            return {"valid": False, "subject": "", "reason": f"bad assertion: {exc}"}
        if not assertion.verify_signature(context.session_key()):
            return {"valid": False, "subject": "", "reason": "signature invalid"}
        if not assertion.is_valid_at(self.clock.now):
            return {"valid": False, "subject": "", "reason": "assertion expired"}
        if assertion.subject != context.initiator:
            return {
                "valid": False,
                "subject": "",
                "reason": "subject does not match session principal",
            }
        return {
            "valid": True,
            "subject": assertion.subject,
            "reason": "",
            "expires": assertion.not_on_or_after,
            "assertion_id": assertion.assertion_id,
        }

    def close_session(self, session_id: str) -> bool:
        """Tear down a session object."""
        return self._sessions.pop(session_id, None) is not None

    def active_sessions(self) -> int:
        """Number of live server-side session objects."""
        return len(self._sessions)


def deploy_auth_service(
    network: VirtualNetwork,
    kdc: Kdc,
    host: str = "auth.gridportal.org",
    *,
    assertion_lifetime: float = 300.0,
) -> tuple[AuthenticationService, str]:
    """Stand up the Authentication Service; returns (service, endpoint URL)."""
    service = AuthenticationService(kdc, assertion_lifetime=assertion_lifetime)
    server = HttpServer(host, network)
    soap = SoapService("AuthenticationService", AUTH_NAMESPACE)
    soap.expose(service.begin_session)
    soap.expose(service.verify)
    soap.expose(service.close_session)
    endpoint = soap.mount(server, "/auth")
    return service, endpoint


class ClientSecuritySession:
    """Client side: the UI server's per-user session object.

    After :meth:`login`, :meth:`header_provider` can be registered on any
    :class:`repro.soap.SoapClient`; every outgoing call then carries a
    freshly signed SAML assertion.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        kdc: Kdc,
        auth_endpoint: str,
        *,
        ui_host: str = "ui.gridportal.org",
        assertion_lifetime: float = 300.0,
    ):
        self.network = network
        self.kdc = kdc
        self.clock = kdc.clock
        self.ui_host = ui_host
        self.assertion_lifetime = assertion_lifetime
        self._auth_client = SoapClient(
            network, auth_endpoint, AUTH_NAMESPACE, source=ui_host
        )
        self.user = ""
        self.session_id = ""
        self._context: GssContext | None = None
        self.assertions_issued = 0

    def login(self, user: str, password: str) -> str:
        """Run the full Figure 2 login: kinit, service ticket, GSS context,
        ``begin_session``.  Returns the session id."""
        try:
            tgt = self.kdc.authenticate(user, password)
            ticket = self.kdc.get_service_ticket(tgt, SERVICE_PRINCIPAL)
        except KerberosError as exc:
            raise AuthenticationError(f"Kerberos login failed: {exc}") from exc
        context, token = GssContext.init_sec_context(ticket)
        result = self._auth_client.call("begin_session", user, crypto.b64(token))
        self.user = user
        self.session_id = result["session"]
        self._context = context
        return self.session_id

    @property
    def logged_in(self) -> bool:
        return self._context is not None

    def make_assertion(self) -> SamlAssertion:
        """Create and sign a fresh assertion for the logged-in user."""
        if self._context is None:
            raise AuthenticationError("not logged in")
        now = self.clock.now
        assertion = SamlAssertion(
            issuer=self.ui_host,
            subject=self.user,
            method=SamlAssertion.METHOD_KERBEROS,
            auth_instant=now,
            not_before=now,
            not_on_or_after=now + self.assertion_lifetime,
            attributes={"session": self.session_id},
        )
        assertion.sign(self._context.session_key())
        self.assertions_issued += 1
        return assertion

    def header_provider(self, method: str, params: list[Any]) -> list[XmlElement]:
        """A :class:`SoapClient` header provider attaching a signed assertion."""
        return [self.make_assertion().to_xml()]

    def secure(self, client: SoapClient) -> SoapClient:
        """Attach this session to a SOAP client; returns the client."""
        client.add_header_provider(self.header_provider)
        return client

    def logout(self) -> None:
        if self.session_id:
            self._auth_client.call("close_session", self.session_id)
        self.user = ""
        self.session_id = ""
        self._context = None


class AssertionInterceptor:
    """SPP side: require a verified SAML assertion on every call.

    ``cache=True`` enables the verification cache (GridCertLib pattern, see
    :mod:`repro.security.assertioncache`): a positive verification is
    trusted until the earlier of the cache TTL and the assertion's
    ``NotOnOrAfter``, keyed on *principal + assertion id* so a cached id
    can never vouch for a different subject.  The ablation in
    ``benchmarks/test_fig2_auth.py`` quantifies what the extra per-request
    hop costs without it; for cross-region calls the hop would otherwise be
    paid on every replicated request.
    """

    def __init__(
        self,
        network: VirtualNetwork,
        auth_endpoint: str,
        *,
        spp_host: str,
        clock=None,
        cache: bool = False,
        cache_ttl: float = 300.0,
    ):
        from repro.security.assertioncache import AssertionCache

        self._client = SoapClient(
            network, auth_endpoint, AUTH_NAMESPACE, source=spp_host
        )
        self.clock = clock
        self.cache_enabled = cache and clock is not None
        self.cache = (
            AssertionCache(clock, ttl=cache_ttl) if self.cache_enabled else None
        )
        self.verified_calls = 0

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    def invalidate_principal(self, principal: str) -> int:
        """Drop cached verifications for *principal* (ticket expiry path)."""
        if self.cache is None:
            return 0
        return self.cache.invalidate_principal(principal)

    def __call__(
        self, method: str, params: list[Any], envelope: SoapEnvelope
    ) -> None:
        header = envelope.header("Assertion")
        if header is None:
            raise AuthenticationError("request carries no SAML assertion")
        assertion = SamlAssertion.from_xml(header)
        session_id = assertion.attributes.get("session", "")
        if self.cache is not None:
            cached = self.cache.get(assertion.subject, assertion.assertion_id)
            if cached is not None:
                return
        # the header element itself travels on: the verify request carries
        # it as an XML literal, so no hop serializes it into escaped text
        # and parses it back
        result = self._client.call("verify", session_id, header)
        self.verified_calls += 1
        if not result.get("valid"):
            raise AuthenticationError(
                f"assertion rejected: {result.get('reason', 'unknown')}"
            )
        if self.cache is not None:
            self.cache.put(
                str(result.get("subject", "")),
                str(result.get("assertion_id", assertion.assertion_id)),
                str(result.get("subject", "")),
                expires=float(result.get("expires", 0.0)) or None,
            )
