"""WebPagePortlet: proxy a remote page into the portal."""

from __future__ import annotations

import re

from repro.portlets.base import Portlet
from repro.transport.client import HttpClient
from repro.transport.http import parse_url
from repro.transport.network import TransportError, VirtualNetwork
from repro.xmlutil.element import XmlElement, XmlParseError, parse_xml

#: a document type declaration without an internal subset, as XHTML pages
#: carry: it declares no entity, so the copy is read without it (the
#: parser refuses every DTD)
_EXTERNAL_DOCTYPE = re.compile(r"<!DOCTYPE\s[^\[\]<>]*>")


class WebPagePortlet(Portlet):
    """Loads a remote URL and keeps an in-memory copy for reformatting.

    "In the case of remote web content, the portlet is a proxy that loads
    the remote URL's contents and converts it into an in-memory Java
    object" — here, an :class:`XmlElement` tree when the content is
    well-formed, else the raw text.
    """

    def __init__(
        self,
        name: str,
        url: str,
        network: VirtualNetwork,
        *,
        title: str = "",
        container_host: str = "portal",
    ):
        super().__init__(name, title)
        self.url = url
        self.current_url = url
        self.client = HttpClient(network, container_host)
        self.document: XmlElement | None = None  # the in-memory copy
        self.raw: str = ""
        self.fetches = 0

    # -- fetching ---------------------------------------------------------------

    def fetch(self, url: str | None = None) -> str:
        """Load (or reload) the remote content into the in-memory copy."""
        target = url or self.current_url
        try:
            response = self.client.get(target)
        except TransportError as exc:
            self.document = None
            self.raw = f'<p class="portlet-error">unreachable: {exc}</p>'
            return self.raw
        self.fetches += 1
        self.current_url = str(parse_url(target))
        self.raw = response.body
        if not response.ok:
            self.document = None
            self.raw = (
                f'<p class="portlet-error">HTTP {response.status} from {target}</p>'
            )
            return self.raw
        try:
            self.document = parse_xml(
                _EXTERNAL_DOCTYPE.sub("", response.body, count=1)
            )
        except XmlParseError:
            self.document = None  # keep raw text for non-XML content
        return self.raw

    def content_fragment(self) -> str:
        """The fragment for the portlet window: the remote page's <body>
        children when the copy parsed, else the raw text."""
        if self.document is not None:
            body = self.document.find("body")
            root = body if body is not None else self.document
            return "".join(
                child.serialize() if isinstance(child, XmlElement) else child
                for child in root.content
            )
        return self.raw

    def render(self, container_base: str) -> str:
        if not self.raw and self.document is None:
            self.fetch()
        return self.content_fragment()
