import pytest

from repro.transport.http import (
    HttpRequest,
    HttpResponse,
    Url,
    encode_query,
    parse_query,
    parse_url,
)


def test_parse_url_forms():
    url = parse_url("http://host.example/path/sub?a=1&b=2")
    assert url.host == "host.example"
    assert url.path == "/path/sub"
    assert url.query == "a=1&b=2"
    assert str(url) == "http://host.example/path/sub?a=1&b=2"


def test_parse_url_defaults_and_errors():
    from repro.transport.network import TransportError

    assert parse_url("http://h").path == "/"
    assert parse_url("https://h/x").host == "h"
    with pytest.raises(TransportError):
        parse_url("ftp://h/x")
    with pytest.raises(TransportError):
        parse_url("http:///nohost")


def test_resolve_relative_references():
    base = Url("h", "/a/b/page", "q=1")
    assert base.resolve("http://other/x") == Url("other", "/x", "")
    assert base.resolve("/abs?x=1") == Url("h", "/abs", "x=1")
    assert base.resolve("sibling") == Url("h", "/a/b/sibling", "")


def test_query_roundtrip():
    params = {"key": "value with spaces", "sym": "a&b=c", "uni": "naïve"}
    assert parse_query(encode_query(params)) == params


def test_query_empty_and_valueless():
    assert parse_query("") == {}
    assert parse_query("a=&b=1") == {"a": "", "b": "1"}


def test_request_form_get_vs_post():
    get = HttpRequest("GET", Url("h", "/p", "a=1"))
    assert get.form() == {"a": "1"}
    post = HttpRequest("POST", Url("h", "/p"), body="a=2&b=x")
    assert post.form() == {"a": "2", "b": "x"}


def test_request_size_counts_body_bytes():
    small = HttpRequest("POST", Url("h", "/p"), body="x")
    big = HttpRequest("POST", Url("h", "/p"), body="x" * 1000)
    assert big.size - small.size == 999


def test_lone_surrogate_counts_its_surrogatepass_bytes():
    plain = HttpRequest("POST", Url("h", "/p"), body="ab")
    odd = HttpRequest("POST", Url("h", "/p"), body="a\ud800b")
    assert odd.size - plain.size == 3
    assert HttpResponse(body="a\ud800b").size - HttpResponse(body="ab").size == 3
