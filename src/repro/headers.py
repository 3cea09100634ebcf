"""The SOAP header registry: the portal's cross-cutting protocol vocabulary.

Four headers travel in SOAP envelopes: the deadline
(``urn:gce:resilience``), the idempotency key (``urn:gce:durability``),
the principal (``urn:gce:loadmgmt``), and the replica origin and version
vector (``urn:gce:replication``).  Trace context is not among them: it
rides the ``Traceparent`` HTTP header.  Each header is a protocol element
shared between independent implementations, so — like fault codes in
:mod:`repro.faults` — the set must be enumerable: operators need to know
what can appear in an envelope, and the static analyzer (REP4xx) verifies
that every header a module defines is declared here, has an encoder, and
has a consumer.

This module deliberately imports nothing but :class:`QName` so that the
subsystem modules defining headers (resilience, durability, loadmgmt,
replication) can register during their own import without creating a
cycle through :mod:`repro.soap`.

Usage, in the module that owns the header::

    X_HEADER = QName(MY_NS, "MyHeader")
    register_header(X_HEADER, description="what it carries", module=__name__)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xmlutil.qname import QName


@dataclass(frozen=True)
class HeaderSpec:
    """One registered SOAP header: its qualified name, what it carries,
    and the module that owns encode/decode for it."""

    qname: QName
    description: str
    module: str

    @property
    def key(self) -> str:
        return self.qname.clark()


_HEADERS: dict[str, HeaderSpec] = {}


def register_header(
    qname: QName, *, description: str = "", module: str = ""
) -> QName:
    """Declare a SOAP header in the shared vocabulary.

    Idempotent for identical re-registration (modules may be re-imported);
    a conflicting re-registration of the same qualified name is a
    programming error and raises ``ValueError``.  Returns *qname* so the
    call can wrap the constant definition.
    """
    spec = HeaderSpec(qname=qname, description=description, module=module)
    existing = _HEADERS.get(spec.key)
    if existing is not None and existing != spec:
        raise ValueError(
            f"SOAP header {spec.key} already registered by "
            f"{existing.module or '<unknown>'} with a different spec"
        )
    _HEADERS[spec.key] = spec
    return qname


def registered_headers() -> list[HeaderSpec]:
    """Every declared header, in stable (key-sorted) order."""
    return [_HEADERS[key] for key in sorted(_HEADERS)]


def is_registered(qname: QName) -> bool:
    return qname.clark() in _HEADERS
