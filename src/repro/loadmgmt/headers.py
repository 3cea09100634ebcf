"""The principal SOAP header: which lane a request belongs to.

Admission control arbitrates between *principals* — the paper's §4 user
contexts / portal sessions — so each request must say whose work it is.
The client stamps a ``Principal`` header entry (namespace
``urn:gce:loadmgmt``) carrying the principal name, and nothing else; the
server's admission controller maps the name onto a fair-queue lane.  A
lane's weight and priority class are the server's configuration
(:class:`~repro.loadmgmt.fairqueue.LaneConfig`), never the caller's
claim: a sender cannot buy itself a higher class.  Requests without the
header share the ``anonymous`` lane, so unidentified traffic competes
for exactly one fair share instead of bypassing arbitration.

Like the deadline header, malformed values are ignored rather than
faulted — load-management headers must never break a call.
"""

from __future__ import annotations

from repro.headers import register_header
from repro.xmlutil.element import XmlElement
from repro.xmlutil.qname import QName

LOADMGMT_NS = "urn:gce:loadmgmt"

#: the SOAP header entry naming the request's principal (lane)
PRINCIPAL_HEADER = QName(LOADMGMT_NS, "Principal")
register_header(
    PRINCIPAL_HEADER,
    description="requesting principal: the fair-queue lane",
    module=__name__,
)


def principal_header(name: str) -> XmlElement:
    """Encode *name* as a header entry."""
    return XmlElement(PRINCIPAL_HEADER, text=name)


def principal_from_headers(headers: list[XmlElement]) -> str | None:
    """The principal the request headers name, or ``None`` when absent."""
    for entry in headers:
        if entry.tag == PRINCIPAL_HEADER:
            return (entry.text or "").strip() or None
    return None
