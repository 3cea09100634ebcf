import pytest

from repro.portlets.webpage import WebPagePortlet
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.server import HttpServer

PAGE = """\
<html><head><title>Remote</title></head>
<body><h1>Remote content</h1><p>hello</p></body></html>
"""

XHTML = (
    '<?xml version="1.0"?>\n<!DOCTYPE html PUBLIC "-//W3C//DTD XHTML 1.0'
    ' Strict//EN"\n "http://www.w3.org/TR/xhtml1/DTD/xhtml1-strict.dtd">\n'
    + PAGE
)
SUBSET = '<!DOCTYPE html [<!ENTITY e "boom">]>' + PAGE.replace("hello", "&e;")


@pytest.fixture
def remote(network):
    server = HttpServer("remote.host", network)
    server.mount("/page", lambda r: HttpResponse(200, {}, PAGE))
    server.mount("/plain", lambda r: HttpResponse(200, {}, "not <xml"))
    server.mount("/xhtml", lambda r: HttpResponse(200, {}, XHTML))
    server.mount("/subset", lambda r: HttpResponse(200, {}, SUBSET))
    return server


def test_fetch_keeps_in_memory_copy(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/page", network)
    portlet.fetch()
    assert portlet.document is not None  # the in-memory object
    assert portlet.fetches == 1


def test_render_extracts_body(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/page", network)
    fragment = portlet.render("/portal")
    assert "<h1>Remote content</h1>" in fragment
    assert "<title>" not in fragment  # head stripped


def test_non_xml_content_passes_through_raw(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/plain", network)
    assert portlet.render("/portal") == "not <xml"
    assert portlet.document is None


def test_unreachable_host_renders_error_box(network, remote):
    portlet = WebPagePortlet("p", "http://gone.host/", network)
    fragment = portlet.render("/portal")
    assert "portlet-error" in fragment


def test_http_error_rendered(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/missing", network)
    fragment = portlet.render("/portal")
    assert "HTTP 404" in fragment


def test_xhtml_doctype_is_read_past_but_an_internal_subset_is_not(
    network, remote,
):
    # a public DOCTYPE declares nothing: the copy parses without it
    page = WebPagePortlet("p", "http://remote.host/xhtml", network)
    assert "<h1>Remote content</h1>" in page.render("/portal")
    assert page.document is not None
    # an internal subset may declare entities: the page stays raw text
    subset = WebPagePortlet("p", "http://remote.host/subset", network)
    assert subset.render("/portal") == SUBSET
    assert subset.document is None
