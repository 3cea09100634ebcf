"""HTTP request/response records and URL handling for the virtual network."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Url:
    """A parsed ``http://host/path?query`` URL (no ports: hosts are names on
    the virtual network)."""

    host: str
    path: str = "/"
    query: str = ""

    def __str__(self) -> str:
        url = f"http://{self.host}{self.path or '/'}"
        if self.query:
            url += f"?{self.query}"
        return url

    def with_path(self, path: str) -> "Url":
        return Url(self.host, path, "")

    def resolve(self, reference: str) -> "Url":
        """Resolve a link reference against this URL (absolute URLs,
        host-absolute paths, and relative paths)."""
        if reference.startswith("http://") or reference.startswith("https://"):
            return parse_url(reference)
        if reference.startswith("/"):
            path, _, query = reference.partition("?")
            return Url(self.host, path, query)
        base = self.path.rsplit("/", 1)[0]
        path, _, query = reference.partition("?")
        return Url(self.host, f"{base}/{path}", query)


def parse_url(url: str) -> Url:
    """Parse an absolute http(s) URL into a :class:`Url`.

    Malformed URLs raise the transport-class :class:`TransportError` (late
    import: :mod:`repro.transport.network` imports this module): on a
    dispatch path an unroutable URL is a transport failure, and the
    resilience layer already classifies those.
    """
    from repro.transport.network import TransportError

    for scheme in ("http://", "https://"):
        if url.startswith(scheme):
            rest = url[len(scheme):]
            break
    else:
        raise TransportError(f"not an absolute http URL: {url!r}")
    host, slash, tail = rest.partition("/")
    if not host:
        raise TransportError(f"URL has no host: {url!r}")
    path, _, query = (slash + tail).partition("?")
    return Url(host, path or "/", query)


def parse_query(query: str) -> dict[str, str]:
    """Parse a query/form-encoded string into a dict (last value wins)."""
    out: dict[str, str] = {}
    if not query:
        return out
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        out[_unquote(key)] = _unquote(value)
    return out


def encode_query(params: dict[str, str]) -> str:
    """Form-encode a parameter dict."""
    return "&".join(f"{_quote(k)}={_quote(str(v))}" for k, v in params.items())


_SAFE = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.~"
)


def _quote(text: str) -> str:
    out: list[str] = []
    for byte in text.encode("utf-8"):
        ch = chr(byte)
        if ch in _SAFE:
            out.append(ch)
        elif ch == " ":
            out.append("+")
        else:
            out.append(f"%{byte:02X}")
    return "".join(out)


def _unquote(text: str) -> str:
    out = bytearray()
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "+":
            out.append(ord(" "))
            i += 1
        elif ch == "%" and i + 2 < len(text) + 1:
            try:
                out.append(int(text[i + 1:i + 3], 16))
                i += 3
            except ValueError:
                out.append(ord("%"))
                i += 1
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    return out.decode("utf-8", errors="replace")


def _headers_bytes(headers: dict[str, str]) -> int:
    """A ``Name: value`` line and its line break per header, summed without
    a Python-level loop: every request and response on the wire is sized,
    and a traced request carries one header more."""
    return (
        sum(map(len, headers)) + sum(map(len, headers.values()))
        + 4 * len(headers)
    )


def _body_bytes(body: str) -> int:
    """Wire size of a body string.

    Raw binary payloads travel as latin-1 strings (one char per byte); text
    payloads as UTF-8.  Counting latin-1 first keeps binary transfers from
    being double-counted.  A lone surrogate, which UTF-8 cannot carry,
    counts as the 3 bytes ``surrogatepass`` gives it, so sizing never
    fails: whether such a body is well-formed is the receiver's to decide.
    An ASCII body, the common case, is one byte per character in every one
    of those encodings, and CPython knows a string is ASCII without a scan.
    """
    if body.isascii():
        return len(body)
    try:
        return len(body.encode("latin-1"))
    except UnicodeEncodeError:
        return len(body.encode("utf-8", "surrogatepass"))


@dataclass
class HttpRequest:
    """An HTTP request on the virtual wire."""

    method: str
    url: Url
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""

    @property
    def size(self) -> int:
        """Approximate bytes on the wire (request line + headers + body)."""
        head = len(self.method) + len(str(self.url)) + 12
        return head + _headers_bytes(self.headers) + _body_bytes(self.body)

    def form(self) -> dict[str, str]:
        """Decode a form-encoded POST body (or the query string for GET)."""
        if self.method == "GET":
            return parse_query(self.url.query)
        return parse_query(self.body)


@dataclass
class HttpResponse:
    """An HTTP response on the virtual wire."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def size(self) -> int:
        return 17 + _headers_bytes(self.headers) + _body_bytes(self.body)
