"""A lightweight XML infoset with serializer and hand-rolled parser.

The portal layers exchange *documents*, not streams, and need deterministic
serialization plus namespace-aware access (for SOAP envelopes).  This module
provides exactly that and nothing more: elements, attributes, character
data, namespaces, comments-skipped.

The serializer writes what any conforming parser reads back as the same
infoset.  Every namespace a document uses is declared once, on its root
start tag, so sibling subtrees in one namespace (the ``xsi:type`` of each
SOAP argument) share one declaration.  The XML namespace keeps its reserved
``xml`` prefix and is never declared.  Attribute values write TAB, LF and CR
as ``&#9;``, ``&#10;`` and ``&#13;``, and text writes CR as ``&#13;``: a
parser normalizes those characters when they travel raw (an attribute's to
spaces, a CR or CRLF to LF).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union

from repro.xmlutil.qname import QName

_ESCAPES_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ESCAPES_ATTR = {
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\t": "&#9;", "\n": "&#10;", "\r": "&#13;",
}
#: any character an attribute value writes as a reference
_ATTR_SPECIALS = re.compile("[" + "".join(_ESCAPES_ATTR) + "]")
_NAMED_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

#: the namespace bound to the ``xml`` prefix in every document, undeclared
XML_NS = "http://www.w3.org/XML/1998/namespace"

#: a character reference body: ASCII decimal digits, or x/X and hex digits
#: (leading zeros allowed, at most enough digits to name U+10FFFF)
_CHAR_REF = re.compile(r"#(?:0*([0-9]{1,7})|[xX]0*([0-9a-fA-F]{1,6}))")

#: a name and a whitespace run, scanned in C: ``\w`` is exactly the
#: characters ``str.isalnum()`` accepts plus ``_``, and ``\s`` exactly
#: those ``str.isspace()`` accepts
_NAME = re.compile(r"[\w.:-]+").match
_SPACE = re.compile(r"\s*").match

#: the deepest element nesting the parser accepts; it recurses two stack
#: frames per level, so an unbounded document could exhaust the stack
MAX_DEPTH = 256


class XmlParseError(ValueError):
    """Raised on malformed XML input; carries the byte offset of the error."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def _escape(text: str, table: dict[str, str]) -> str:
    for raw, repl in table.items():
        if raw in text:
            text = text.replace(raw, repl)
    return text


def _escape_attr(value: str) -> str:
    # an attribute value is short and seldom holds any of seven characters:
    # one regex search settles that faster than seven ``in`` tests
    if _ATTR_SPECIALS.search(value) is None:
        return value
    return _escape(value, _ESCAPES_ATTR)


class CData(str):
    """Text that serializes as one CDATA section instead of escaped.

    The parser reads a section back as plain text, so a ``CData`` is only a
    choice of wire form; whoever builds one guarantees it holds no ``]]>``.
    """

    __slots__ = ()


Content = Union["XmlElement", str]


def _prefixed(name: QName, prefixes: dict[str, str]) -> str:
    """*name* as the document writes it, giving its namespace the next
    prefix if it has none yet (*prefixes* maps a namespace to ``prefix:``)."""
    if not name.namespace:
        return name.local
    prefix = prefixes.get(name.namespace)
    if prefix is None:
        # the XML namespace holds the first entry and no number
        prefix = prefixes[name.namespace] = f"ns{len(prefixes) - 1}:"
    return prefix + name.local


class XmlElement:
    """An XML element: qualified tag, attributes, ordered mixed content.

    Content is a list whose items are either child :class:`XmlElement` objects
    or text strings; this supports the mixed content needed by the portlet
    HTML-rewriting layer while keeping simple documents simple.
    """

    __slots__ = ("tag", "attributes", "content")

    def __init__(
        self,
        tag: QName | str,
        attributes: dict[QName | str, str] | None = None,
        content: Iterable[Content] | None = None,
        text: str | None = None,
    ):
        self.tag: QName = tag if isinstance(tag, QName) else QName.parse(tag)
        self.attributes: dict[QName, str] = {}
        for key, value in (attributes or {}).items():
            self.set(key, value)
        self.content: list[Content] = list(content or [])
        if text is not None:
            self.content.append(text)

    # -- attribute access -------------------------------------------------

    def set(self, key: QName | str, value: str) -> "XmlElement":
        qkey = key if isinstance(key, QName) else QName.parse(key)
        # "xmlns"/"xmlns:*" are namespace declarations, not attributes: the
        # serializer emits declarations from each tag's QName namespaces, and
        # the parser consumes them into the namespace map, so a literal
        # attribute by that name could never round-trip
        if not qkey.namespace and (
            qkey.local == "xmlns" or qkey.local.startswith("xmlns:")
        ):
            raise ValueError(
                f"{qkey.local!r} is a reserved namespace declaration, "
                "not an attribute"
            )
        self.attributes[qkey] = str(value)
        return self

    def get(self, key: QName | str, default: str | None = None) -> str | None:
        qkey = key if isinstance(key, QName) else QName.parse(key)
        return self.attributes.get(qkey, default)

    # -- content access ----------------------------------------------------

    @property
    def children(self) -> list["XmlElement"]:
        """Element children only (text nodes skipped)."""
        return [c for c in self.content if isinstance(c, XmlElement)]

    @property
    def text(self) -> str:
        """Concatenation of all *direct* text content."""
        return "".join(c for c in self.content if isinstance(c, str))

    def set_text(self, text: str) -> "XmlElement":
        """Replace all content with a single text node."""
        self.content = [text]
        return self

    def append(self, child: Content) -> "XmlElement":
        self.content.append(child)
        return self

    def extend(self, children: Iterable[Content]) -> "XmlElement":
        self.content.extend(children)
        return self

    def child(self, tag: QName | str, text: str | None = None) -> "XmlElement":
        """Create, append, and return a new child element (builder style)."""
        el = XmlElement(tag, text=text)
        self.content.append(el)
        return el

    def find(self, tag: QName | str) -> "XmlElement | None":
        """First direct child with the given tag.

        A bare local name matches any namespace; a full QName matches exactly.
        """
        for el in self._match(tag):
            return el
        return None

    def findall(self, tag: QName | str) -> list["XmlElement"]:
        """All direct children with the given tag (bare name = any namespace)."""
        return list(self._match(tag))

    def findtext(self, tag: QName | str, default: str = "") -> str:
        el = self.find(tag)
        return el.text if el is not None else default

    def _match(self, tag: QName | str) -> Iterator["XmlElement"]:
        if isinstance(tag, str) and not tag.startswith("{"):
            for el in self.children:
                if el.tag.local == tag:
                    yield el
            return
        qtag = tag if isinstance(tag, QName) else QName.parse(tag)
        for el in self.children:
            if el.tag == qtag:
                yield el

    def clone(self) -> "XmlElement":
        """A deep copy (children cloned, text shared — strings are immutable)."""
        copy = XmlElement(self.tag)
        copy.attributes = dict(self.attributes)
        copy.content = [
            c.clone() if isinstance(c, XmlElement) else c for c in self.content
        ]
        return copy

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    # -- serialization -----------------------------------------------------

    def serialize(self, indent: int | None = None, declaration: bool = False) -> str:
        """Serialize to a string.

        Namespace prefixes are assigned deterministically in document order
        (``ns0``, ``ns1``, ...) from one map for the whole tree, and the
        root's start tag declares each of them once; the XML namespace is
        written with its ``xml`` prefix and never declared.  Attribute
        values escape TAB, LF and CR, and text escapes CR, as character
        references, so a conforming parser reads every value back as it is.
        """
        parts: list[str] = []
        if declaration:
            parts.append('<?xml version="1.0" encoding="UTF-8"?>')
            if indent is not None:
                parts.append("\n")
        prefixes: dict[str, str] = {XML_NS: "xml:"}
        root = len(parts)
        self._serialize(parts, prefixes, indent, 0, parent_pretty=False)
        if len(prefixes) > 1:
            # the whole tree is walked, so every namespace has its prefix:
            # declare them all just before the root start tag's end
            start = parts[root]
            end = len(start) - (1 if self.content else 2)
            declarations = "".join([
                f' xmlns:{prefix[:-1]}="{_escape_attr(ns)}"'
                for ns, prefix in prefixes.items()
                if ns != XML_NS
            ])
            parts[root] = start[:end] + declarations + start[end:]
        return "".join(parts)

    def _serialize(
        self,
        parts: list[str],
        prefixes: dict[str, str],
        indent: int | None,
        depth: int,
        parent_pretty: bool,
    ) -> None:
        # indentation is only safe around element-only content; a parent with
        # mixed content must not have whitespace injected between its children
        pad = "\n" + " " * (indent * depth) if parent_pretty and depth else ""
        tag = _prefixed(self.tag, prefixes)
        open_tag = f"{pad}<{tag}"
        if self.attributes:
            open_tag += "".join([
                f' {_prefixed(key, prefixes)}="{_escape_attr(value)}"'
                for key, value in self.attributes.items()
            ])
        if not self.content:
            parts.append(open_tag + "/>")
            return
        parts.append(open_tag + ">")
        pretty = indent is not None and all(
            isinstance(c, XmlElement) for c in self.content
        )
        for item in self.content:
            if isinstance(item, str):
                if item.__class__ is CData:
                    parts.append(f"<![CDATA[{item}]]>")
                else:
                    parts.append(_escape(item, _ESCAPES_TEXT))
            else:
                item._serialize(parts, prefixes, indent, depth + 1, pretty)
        if pretty:
            parts.append("\n" + " " * ((indent or 0) * depth))
        parts.append(f"</{tag}>")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag.clark()} children={len(self.children)}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality ignoring pure-whitespace text nodes."""
        if not isinstance(other, XmlElement):
            return NotImplemented
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        return self._significant_content() == other._significant_content()

    def _significant_content(self) -> list[Content]:
        """Content normalized for comparison: whitespace-only text dropped,
        adjacent text runs merged (a parser cannot distinguish them)."""
        merged: list[Content] = []
        for item in self.content:
            if isinstance(item, str) and merged and isinstance(merged[-1], str):
                merged[-1] = merged[-1] + item
            else:
                merged.append(item)
        return [
            c for c in merged if isinstance(c, XmlElement) or c.strip()
        ]

    __hash__ = None  # type: ignore[assignment]  # mutable


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """A small recursive-descent, namespace-aware XML parser."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)
        self.depth = 0  # elements open around the current position

    def fail(self, message: str) -> XmlParseError:
        return XmlParseError(message, self.pos)

    def parse_document(self) -> XmlElement:
        self._skip_misc()
        if self.pos >= self.n or self.text[self.pos] != "<":
            raise self.fail("expected root element")
        root = self._parse_element({"": "", "xml": XML_NS})
        self._skip_misc()
        if self.pos != self.n:
            raise self.fail("trailing content after root element")
        return root

    def _skip_misc(self) -> None:
        """Skip whitespace, comments, processing instructions, and DOCTYPE."""
        while True:
            self.pos = _SPACE(self.text, self.pos).end()
            if self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.fail("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.fail("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<!DOCTYPE", self.pos):
                depth = 0
                while self.pos < self.n:
                    c = self.text[self.pos]
                    self.pos += 1
                    if c == "<":
                        depth += 1
                    elif c == ">":
                        depth -= 1
                        if depth == 0:
                            break
                else:
                    raise self.fail("unterminated DOCTYPE")
            else:
                return

    def _parse_name(self) -> str:
        match = _NAME(self.text, self.pos)
        if match is None:
            raise self.fail("expected a name")
        self.pos = match.end()
        return match[0]

    def _skip_ws(self) -> None:
        self.pos = _SPACE(self.text, self.pos).end()

    def _check_qname(self, name: str, start: int) -> None:
        """A name with a colon is ``prefix:local``: one colon, both parts
        non-empty (``xmlns:`` too must name a prefix)."""
        prefix, _, local = name.partition(":")
        if not prefix or not local or ":" in local:
            raise XmlParseError(f"malformed qualified name {name!r}", start)

    def _resolve(self, name: str, nsmap: dict[str, str], *, attr: bool) -> QName:
        if ":" in name:
            prefix, local = name.split(":", 1)
            if prefix not in nsmap:
                raise self.fail(f"undeclared namespace prefix {prefix!r}")
            return QName(nsmap[prefix], local)
        # default namespace applies to elements, never to attributes
        return QName("" if attr else nsmap.get("", ""), name)

    def _parse_element(self, parent_nsmap: dict[str, str]) -> XmlElement:
        assert self.text[self.pos] == "<"
        if self.depth == MAX_DEPTH:
            raise self.fail(f"elements nested deeper than {MAX_DEPTH} levels")
        self.pos += 1
        name = self._parse_name()
        if ":" in name:
            self._check_qname(name, self.pos - len(name))
        raw_attrs: list[tuple[str, str]] = []
        nsmap = dict(parent_nsmap)
        while True:
            self._skip_ws()
            if self.pos >= self.n:
                raise self.fail("unterminated start tag")
            if self.text[self.pos] in "/>":
                break
            attr_name = self._parse_name()
            if ":" in attr_name:
                self._check_qname(attr_name, self.pos - len(attr_name))
            self._skip_ws()
            if self.pos >= self.n or self.text[self.pos] != "=":
                raise self.fail(f"expected '=' after attribute {attr_name!r}")
            self.pos += 1
            self._skip_ws()
            quote = self.text[self.pos] if self.pos < self.n else ""
            if quote not in ("'", '"'):
                raise self.fail("attribute value must be quoted")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self.fail("unterminated attribute value")
            value = _decode_entities(self.text[self.pos:end], self)
            self.pos = end + 1
            if attr_name == "xmlns":
                nsmap[""] = value
            elif attr_name.startswith("xmlns:"):
                nsmap[attr_name[6:]] = value
            else:
                raw_attrs.append((attr_name, value))

        element = XmlElement(self._resolve(name, nsmap, attr=False))
        for attr_name, value in raw_attrs:
            element.attributes[self._resolve(attr_name, nsmap, attr=True)] = value

        if self.text[self.pos] == "/":
            if not self.text.startswith("/>", self.pos):
                raise self.fail("malformed empty-element tag")
            self.pos += 2
            return element
        self.pos += 1  # consume '>'
        self.depth += 1
        self._parse_content(element, nsmap, name)
        self.depth -= 1
        return element

    def _parse_content(
        self, element: XmlElement, nsmap: dict[str, str], open_name: str
    ) -> None:
        buf: list[str] = []

        def flush() -> None:
            if buf:
                text = "".join(buf)
                buf.clear()
                element.content.append(text)

        while True:
            if self.pos >= self.n:
                raise self.fail(f"unterminated element <{open_name}>")
            ch = self.text[self.pos]
            if ch != "<":
                nxt = self.text.find("<", self.pos)
                if nxt < 0:
                    raise self.fail(f"unterminated element <{open_name}>")
                buf.append(_decode_entities(self.text[self.pos:nxt], self))
                self.pos = nxt
                continue
            if self.text.startswith("</", self.pos):
                flush()
                self.pos += 2
                close = self._parse_name()
                if close != open_name:
                    raise self.fail(
                        f"mismatched close tag </{close}> for <{open_name}>"
                    )
                self._skip_ws()
                if self.pos >= self.n or self.text[self.pos] != ">":
                    raise self.fail("malformed close tag")
                self.pos += 1
                return
            if self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.fail("unterminated comment")
                self.pos = end + 3
                continue
            if self.text.startswith("<![CDATA[", self.pos):
                end = self.text.find("]]>", self.pos)
                if end < 0:
                    raise self.fail("unterminated CDATA section")
                buf.append(self.text[self.pos + 9:end])
                self.pos = end + 3
                continue
            if self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.fail("unterminated processing instruction")
                self.pos = end + 2
                continue
            flush()
            element.content.append(self._parse_element(nsmap))


def _decode_entities(text: str, parser: _Parser) -> str:
    amp = text.find("&")
    if amp < 0:
        return text
    out: list[str] = []
    start = 0  # the first character not yet copied to *out*
    while amp >= 0:
        end = text.find(";", amp)
        if end < 0:
            raise parser.fail("unterminated entity reference")
        out.append(text[start:amp])
        entity = text[amp + 1:end]
        if entity.startswith("#"):
            out.append(_char_ref(entity, parser))
        elif entity in _NAMED_ENTITIES:
            out.append(_NAMED_ENTITIES[entity])
        else:
            raise parser.fail(f"unknown entity &{entity};")
        start = end + 1
        amp = text.find("&", start)
    out.append(text[start:])
    return "".join(out)


def _char_ref(entity: str, parser: _Parser) -> str:
    """The character ``&{entity};`` names, if it is one XML allows."""
    match = _CHAR_REF.fullmatch(entity)
    if match is None:
        raise parser.fail(f"malformed character reference &{entity};")
    decimal, hexadecimal = match.groups()
    code = int(decimal) if decimal is not None else int(hexadecimal, 16)
    if not (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    ):
        raise parser.fail(f"&{entity}; names no XML character")
    return chr(code)


def parse_xml(text: str) -> XmlElement:
    """Parse an XML document string into an :class:`XmlElement` tree."""
    return _Parser(text).parse_document()
