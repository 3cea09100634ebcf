"""A lightweight XML infoset with a serializer and an expat-based parser.

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

Names are :class:`~repro.xmlutil.qname.QName` tuples, hashed and compared
in C, and a name is built once, not per use: the parser maps each of
expat's names through its own bounded table (:data:`_QNAMES`), and a
string tag or attribute name given to :class:`XmlElement`, ``set`` or
``get`` goes through the Clark-notation table of :meth:`QName.parse`.
The serializer keeps one ``{QName: written name}`` table per document, so
each name is prefixed once per document.  ``find``, ``findall``,
``children`` and ``text`` loop over an element's content directly.

:func:`parse_xml` builds the tree from the callbacks of the standard
library's expat, a conforming parser.  Every document that is not
well-formed XML 1.0 with namespaces is an :class:`XmlParseError`:
characters XML cannot carry (NUL and other C0 controls, U+FFFE, a lone
surrogate), ``]]>`` in text, a duplicate attribute, an unbound prefix,
``xmlns:p=""``, ``&#X41;``.  So is any document type declaration, which
closes entity expansion, and nesting deeper than :data:`MAX_DEPTH`.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union
from xml.parsers.expat import ErrorString, ExpatError, ParserCreate

from repro.xmlutil.qname import MAX_NAMES, QName

_ESCAPES_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"}
_ESCAPES_ATTR = {
    "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
    "\t": "&#9;", "\n": "&#10;", "\r": "&#13;",
}
#: finds any character an attribute value writes as a reference
_attr_special = re.compile("[" + "".join(_ESCAPES_ATTR) + "]").search

#: the namespace bound to the ``xml`` prefix in every document, undeclared
XML_NS = "http://www.w3.org/XML/1998/namespace"

#: the deepest element nesting the parser accepts.  The parser keeps its
#: own stack, but the tree's walkers (``iter``, ``clone``, ``_serialize``
#: and ``__eq__``) recurse a frame or more per level, so an unbounded
#: document could exhaust the interpreter's stack after parsing
MAX_DEPTH = 256


class XmlParseError(ValueError):
    """Raised on input that is not a well-formed document; ``pos`` is the
    character offset into the parsed string at which the fault lies."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def _escape(text: str, table: dict[str, str]) -> str:
    for raw, repl in table.items():
        if raw in text:
            text = text.replace(raw, repl)
    return text


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
    namespace, local = name
    if not namespace:
        return local
    prefix = prefixes.get(namespace)
    if prefix is None:
        # the XML namespace holds the first entry and no number
        prefix = prefixes[namespace] = f"ns{len(prefixes) - 1}:"
    return prefix + local


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
        if attributes:
            for key, value in attributes.items():
                self.set(key, value)
        self.content: list[Content] = list(content) if content else []
        if text is not None:
            self.content.append(text)

    # -- attribute access -------------------------------------------------

    def set(self, key: QName | str, value: str) -> "XmlElement":
        qkey = key if isinstance(key, QName) else QName.parse(key)
        # "xmlns"/"xmlns:*" are namespace declarations, not attributes: the
        # serializer emits declarations from each tag's QName namespaces, and
        # the parser consumes them into the namespace map, so a literal
        # attribute by that name could never round-trip
        namespace, local = qkey
        if not namespace and (local == "xmlns" or local.startswith("xmlns:")):
            raise ValueError(
                f"{local!r} is a reserved namespace declaration, "
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
        children = []
        for item in self.content:
            if isinstance(item, XmlElement):
                children.append(item)
        return children

    @property
    def text(self) -> str:
        """Concatenation of all *direct* text content."""
        texts = []
        for item in self.content:
            if isinstance(item, str):
                texts.append(item)
        return "".join(texts)

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
        if isinstance(tag, str) and not tag.startswith("{"):
            for item in self.content:
                if isinstance(item, XmlElement) and item.tag.local == tag:
                    return item
            return None
        qtag = tag if isinstance(tag, QName) else QName.parse(tag)
        for item in self.content:
            if isinstance(item, XmlElement) and item.tag == qtag:
                return item
        return None

    def findall(self, tag: QName | str) -> list["XmlElement"]:
        """All direct children with the given tag (bare name = any namespace)."""
        found = []
        if isinstance(tag, str) and not tag.startswith("{"):
            for item in self.content:
                if isinstance(item, XmlElement) and item.tag.local == tag:
                    found.append(item)
            return found
        qtag = tag if isinstance(tag, QName) else QName.parse(tag)
        for item in self.content:
            if isinstance(item, XmlElement) and item.tag == qtag:
                found.append(item)
        return found

    def findtext(self, tag: QName | str, default: str = "") -> str:
        el = self.find(tag)
        return el.text if el is not None else default

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
        self._serialize(parts, {}, prefixes, indent, 0, parent_pretty=False)
        if len(prefixes) > 1:
            # the whole tree is walked, so every namespace has its prefix:
            # declare them all just before the root start tag's end
            start = parts[root]
            end = len(start) - (1 if self.content else 2)
            declarations = ""
            for namespace, prefix in prefixes.items():
                if namespace != XML_NS:
                    if _attr_special(namespace) is not None:
                        namespace = _escape(namespace, _ESCAPES_ATTR)
                    declarations += f' xmlns:{prefix[:-1]}="{namespace}"'
            parts[root] = start[:end] + declarations + start[end:]
        return "".join(parts)

    def _serialize(
        self,
        parts: list[str],
        names: dict[QName, str],
        prefixes: dict[str, str],
        indent: int | None,
        depth: int,
        parent_pretty: bool,
    ) -> None:
        # *names* maps each QName of the document to its written name, so
        # a name costs one dict lookup after its first use; it is filled in
        # document order (tag, attributes, children), the order in which
        # _prefixed numbers the prefixes
        tag = names.get(self.tag)
        if tag is None:
            tag = names[self.tag] = _prefixed(self.tag, prefixes)
        # indentation is only safe around element-only content; a parent with
        # mixed content must not have whitespace injected between its children
        pad = "\n" + " " * (indent * depth) if parent_pretty and depth else ""
        open_tag = f"{pad}<{tag}"
        if self.attributes:
            for key, value in self.attributes.items():
                name = names.get(key)
                if name is None:
                    name = names[key] = _prefixed(key, prefixes)
                # an attribute value is short and seldom holds any of seven
                # characters: one regex search settles that faster than
                # seven ``in`` tests
                if _attr_special(value) is not None:
                    value = _escape(value, _ESCAPES_ATTR)
                open_tag += f' {name}="{value}"'
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
                # most text holds none of the four characters; ``in`` scans
                # a long text (a base64 file) at memory speed, a regex
                # search one character at a time
                elif "&" in item or "<" in item or ">" in item or "\r" in item:
                    parts.append(_escape(item, _ESCAPES_TEXT))
                else:
                    parts.append(item)
            else:
                item._serialize(
                    parts, names, prefixes, indent, depth + 1, pretty
                )
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

#: expat's name for an element or attribute (``namespace}local``, or a bare
#: ``local`` outside any namespace) -> its QName.  Documents reuse few
#: names, so each is built once; a run of distinct names refills the table
#: instead of growing it.  It is kept apart from the Clark-notation table
#: of :meth:`QName.parse`: a namespace may start with ``{``, so the same
#: string can name different QNames in the two notations.
_QNAMES: dict[str, QName] = {}

_new = object.__new__


def _qname(name: str) -> QName:
    """The QName of expat name *name*, entered in :data:`_QNAMES`."""
    if len(_QNAMES) >= MAX_NAMES:
        _QNAMES.clear()
    # a local name never holds the separator; a namespace may
    namespace, _, local = name.rpartition("}")
    qname = _QNAMES[name] = QName(namespace, local)
    return qname


def _offset(text: str, byte_index: int) -> int:
    """The character offset in *text* of its UTF-8 byte *byte_index*."""
    if byte_index <= 0 or text.isascii():
        return max(byte_index, 0)
    return len(text.encode("utf-8")[:byte_index].decode("utf-8", "ignore"))


def parse_xml(text: str) -> XmlElement:
    """Parse an XML document string into an :class:`XmlElement` tree."""
    parser = ParserCreate(namespace_separator="}")
    parser.ordered_attributes = True
    parser.buffer_text = True
    document = _new(XmlElement)  # above the root, its one child
    document.content = []
    open_elements = [document]
    pending: list[str] = []  # the text since the last tag, in chunks

    def refuse(message: str) -> XmlParseError:
        return XmlParseError(message, _offset(text, parser.CurrentByteIndex))

    def start(name: str, attributes: list[str]) -> None:
        parent = open_elements[-1]
        if pending:
            parent.content.append("".join(pending))
            pending.clear()
        if len(open_elements) > MAX_DEPTH:
            raise refuse(f"elements nested deeper than {MAX_DEPTH} levels")
        element = _new(XmlElement)
        try:
            element.tag = _QNAMES[name]
        except KeyError:
            element.tag = _qname(name)
        element.attributes = values = {}
        if attributes:  # name, value, name, value, ... in document order
            for i in range(0, len(attributes), 2):
                key = attributes[i]
                values[_QNAMES.get(key) or _qname(key)] = attributes[i + 1]
        element.content = []
        parent.content.append(element)
        open_elements.append(element)

    def end(_name: str) -> None:
        element = open_elements.pop()
        if pending:
            element.content.append("".join(pending))
            pending.clear()

    def refuse_doctype(*_declaration) -> None:
        # called before any internal subset is read: no entity is declared
        raise refuse("a document type declaration is not accepted")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.StartDoctypeDeclHandler = refuse_doctype
    try:
        parser.Parse(text, True)
    except ExpatError as error:
        raise XmlParseError(
            ErrorString(error.code), _offset(text, parser.ErrorByteIndex)
        ) from None
    except UnicodeEncodeError as error:  # UTF-8 cannot carry it, nor XML
        raise XmlParseError("lone surrogate", error.start) from None
    finally:  # these refer to the parser: free it without the cyclic GC
        parser.StartElementHandler = parser.StartDoctypeDeclHandler = None
    return document.content[0]
