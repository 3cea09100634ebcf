"""SOAP-encoding of typed Python values.

Implements the subset of SOAP 1.1 Section-5 encoding that the portal
services exchange: simple types with ``xsi:type`` hints, arrays, structs,
``xsi:nil`` for nulls, base64 binary, and embedded XML-literal payloads (the
paper's job-submission and SRB services pass "an XML definition of a job ...
as an XML string"; the XML-literal form carries it without double-escaping,
while plain strings remain fully supported).

A string has two wire forms, and the encoder sends the shorter.  The
escaped form writes each ``<`` and ``>`` as a 4-byte entity reference and
each ``&`` as a 5-byte one, adding 3 or 4 bytes per such character.  One
CDATA section (``<![CDATA[...]]>``) writes the string as it is, inside 12
bytes of framing.  A string takes CDATA only when its escapes would add
more than those 12 bytes and it holds neither ``]]>`` (which would end the
section) nor ``\r`` (a conforming parser reads a CR inside CDATA as a line
feed, and no character reference can protect it there; the escaped form
writes each CR as ``&#13;``, which reads back as CR).  So the markup a
string carries (an ``xml_call`` batch, a rendered page) travels unescaped,
and the parser finds the section's end with one search instead of decoding
entities; a string with a few ``&`` or none stays escaped.  Either form
decodes to the same ``str``, typed ``xsd:string``.

Decoding reads each scalar type's lexical form strictly, and any other text
raises :class:`SoapEncodingError`.  An ``xsd:boolean`` is ``true``,
``false``, ``1`` or ``0``, an ``xsd:int`` (or ``integer``, ``long``,
``short``) is ASCII ``[+-]?[0-9]+``, and an ``xsd:double`` (or ``float``,
``decimal``) is ASCII decimal or scientific notation, ``INF``, ``-INF`` or
``NaN``, each once whitespace collapse has stripped its ends.  A double is
written as ``repr`` gives it when finite, else by those three names.
:mod:`repro.xmlutil.schema` reads and writes schema-typed values by the
same rules.  Base64 must hold only base64 digits, padding and ASCII
whitespace.
"""

from __future__ import annotations

import base64
import binascii
import re
from typing import Any

from repro.faults import PortalError
from repro.xmlutil.element import CData, XmlElement
from repro.xmlutil.qname import QName
from repro.xmlutil.schema import (
    format_double,
    parse_boolean,
    parse_double,
    parse_int,
)

SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
XSD_NS = "http://www.w3.org/2001/XMLSchema"

_TYPE_ATTR = QName(XSI_NS, "type")
_NIL_ATTR = QName(XSI_NS, "nil")
_ARRAY_TYPE_ATTR = QName(SOAP_ENC_NS, "arrayType")

#: a struct key that travels unchanged as its element name
_PLAIN_KEY = re.compile(r"[A-Za-z_][A-Za-z0-9._-]*")

#: the characters any other key escapes: the underscore of ``_x``, one an
#: element name may not hold, and a first one a name may not start with
_KEY_ESCAPES = re.compile(r"_(?=x)|[^A-Za-z0-9._-]|^[0-9.-]")

#: one escaped character, the SQL/XML and .NET ``XmlConvert`` form
_ESCAPED_CHAR = re.compile(r"_x([0-9A-F]{4}|[0-9A-F]{8})_")

#: the element name of the empty key (no escaped key takes this form)
_EMPTY_KEY = "_x_"

#: the bytes a CDATA section adds around its text
_CDATA_FRAMING = len("<![CDATA[]]>")

#: the characters of a string whose escapes are counted first
_HEAD = 512


class SoapEncodingError(PortalError, ValueError):
    """Raised when a value cannot be encoded or decoded.

    Part of the portal error vocabulary (it crosses the wire as
    ``Portal.Encoding``): an encoding failure inside one service's
    dispatch must reach the remote caller classified, not as an opaque
    ``Server`` fault.  Still a ``ValueError`` for callers that treat it
    as a plain bad-value signal.
    """

    code = "Portal.Encoding"
    retryable = False  # the same value will still not encode


def encode_value(name: str | QName, value: Any) -> XmlElement:
    """Encode a Python value as a SOAP-encoded element named *name*."""
    node = XmlElement(name)
    _encode_into(node, value)
    return node


def _key_to_name(key: str) -> str:
    """The element name a struct key crosses the wire as: each character
    that would not make a well-formed name becomes ``_xHHHH_``
    (``_xHHHHHHHH_`` beyond the BMP)."""
    if "_x" not in key and _PLAIN_KEY.fullmatch(key):
        return key
    return _KEY_ESCAPES.sub(_escape_char, key) if key else _EMPTY_KEY


def _escape_char(match: re.Match) -> str:
    code = ord(match[0])
    return f"_x{code:04X}_" if code <= 0xFFFF else f"_x{code:08X}_"


def _name_to_key(name: str) -> str:
    """The struct key an element name carries (inverse of _key_to_name)."""
    if name == _EMPTY_KEY:
        return ""
    return _ESCAPED_CHAR.sub(_unescape_char, name) if "_x" in name else name


def _unescape_char(match: re.Match) -> str:
    code = int(match[1], 16)
    return chr(code) if code <= 0x10FFFF else match[0]


def _escape_cost(text: str) -> int:
    """The bytes escaping adds to *text*: 4 per ``&``, 3 per ``<`` or ``>``."""
    # ``in`` scans at memory speed and ``count`` a character at a time, so
    # count only what a string holds: most hold no markup (a base64 file
    # among them), and an RSL string only ``&``
    cost = 4 * text.count("&") if "&" in text else 0
    if "<" in text or ">" in text:
        cost += 3 * (text.count("<") + text.count(">"))
    return cost


def _wire_text(value: str) -> str:
    """*value* as one CDATA section when that is its shorter safe wire
    form (see the module docstring), else as itself, to be escaped."""
    # a head's escapes never outnumber the whole string's, so a head
    # dense with markup settles a long string without counting all of it
    escapes = _escape_cost(value[:_HEAD])
    if escapes <= _CDATA_FRAMING and len(value) > _HEAD:
        escapes = _escape_cost(value)
    if (
        escapes > _CDATA_FRAMING
        and "\r" not in value
        # ``]]>`` is a slow search on markup, ``]`` a fast one
        and not ("]" in value and "]]>" in value)
    ):
        return CData(value)
    return value


def _set_type(node: XmlElement, xsd_type: str) -> None:
    node.attributes[_TYPE_ATTR] = xsd_type


def _encode_into(node: XmlElement, value: Any) -> None:
    if value is None:
        node.attributes[_NIL_ATTR] = "true"
    elif isinstance(value, bool):
        _set_type(node, "xsd:boolean")
        node.set_text("true" if value else "false")
    elif isinstance(value, int):
        _set_type(node, "xsd:int")
        node.set_text(str(value))
    elif isinstance(value, float):
        _set_type(node, "xsd:double")
        node.set_text(format_double(value))
    elif isinstance(value, str):
        _set_type(node, "xsd:string")
        node.set_text(_wire_text(value))
    elif isinstance(value, bytes):
        _set_type(node, "xsd:base64Binary")
        node.set_text(base64.b64encode(value).decode("ascii"))
    elif isinstance(value, XmlElement):
        _set_type(node, "enc:XmlLiteral")
        node.content = [value]
    elif isinstance(value, (list, tuple)):
        _set_type(node, "enc:Array")
        node.attributes[_ARRAY_TYPE_ATTR] = f"xsd:anyType[{len(value)}]"
        for item in value:
            node.append(encode_value("item", item))
    elif isinstance(value, dict):
        _set_type(node, "enc:Struct")
        for key, item in value.items():
            if not isinstance(key, str):
                raise SoapEncodingError(
                    f"struct keys must be strings, got {type(key).__name__}"
                )
            node.append(encode_value(_key_to_name(key), item))
    else:
        raise SoapEncodingError(
            f"cannot SOAP-encode value of type {type(value).__name__}"
        )


def decode_value(node: XmlElement) -> Any:
    """Decode a SOAP-encoded element back to a Python value."""
    if node.attributes.get(_NIL_ATTR) == "true":
        return None
    xsi_type = node.attributes.get(_TYPE_ATTR, "")
    local = xsi_type.split(":", 1)[-1] if xsi_type else ""
    if local == "XmlLiteral":
        children = node.children
        if len(children) != 1:
            raise SoapEncodingError("XmlLiteral must wrap exactly one element")
        return children[0]
    if local == "Array" or _ARRAY_TYPE_ATTR in node.attributes:
        return [decode_value(item) for item in node.children]
    if local == "Struct":
        return _decode_struct(node)
    try:
        if local == "boolean":
            return parse_boolean(node.text)
        if local in ("int", "integer", "long", "short"):
            return parse_int(node.text)
        if local in ("double", "float", "decimal"):
            return parse_double(node.text)
        if local in ("base64Binary",):
            return _decode_base64(node.text)
    except ValueError:
        raise SoapEncodingError(
            f"not an xsd:{local} value: {node.text[:40]!r}"
        ) from None
    if local in ("string", "anyURI", "dateTime"):
        return node.text
    # untyped: infer structs from element children, else treat as string
    if node.children:
        return _decode_struct(node)
    return node.text


def _decode_base64(text: str) -> bytes:
    """Strict base64: every character outside ASCII whitespace (which
    line-wrapped base64 holds) must be a base64 digit or its padding."""
    data = text.encode("ascii")
    try:
        return base64.b64decode(data, validate=True)
    except binascii.Error:  # wrapped lines, or not base64 at all
        return base64.b64decode(b"".join(data.split()), validate=True)


def _decode_struct(node: XmlElement) -> dict[str, Any]:
    return {
        _name_to_key(child.tag.local): decode_value(child)
        for child in node.children
    }
