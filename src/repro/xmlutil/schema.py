"""An XSD-subset schema object model (SOM).

The paper's schema wizard (Figure 3) is driven by Castor's Schema Object
Model: "The SOM provides a more convenient API for working with general
schema elements than the XML DOM."  This module is our SOM.  It supports the
subset of XML Schema the application/host/queue descriptors need:

- global and local element declarations with ``minOccurs``/``maxOccurs``
- complex types with ``xs:sequence`` content and attributes
- simple types restricted by enumeration, pattern, length and value bounds
- builtin types: string, int, double, boolean, dateTime, anyURI, base64Binary
- annotations (``xs:documentation``), used by the wizard for form labels

Schemas can be built programmatically (the style used by
:mod:`repro.appws.descriptors`) or parsed from XSD documents with
:func:`parse_schema`; both forms round-trip through :meth:`XsdSchema.to_xml`.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import Union

from repro.xmlutil.element import XmlElement, parse_xml
from repro.xmlutil.qname import QName

XSD_NS = "http://www.w3.org/2001/XMLSchema"

UNBOUNDED = -1

#: what XML Schema's whitespace collapse strips from a value's ends
_XML_SPACE = " \t\n\r"

#: the lexical form of ``xsd:int`` and the other integer types
_INT_LEXICAL = re.compile(r"[+-]?[0-9]+")

#: the lexical form of a finite ``xsd:double``: ASCII decimal digits with an
#: optional point and exponent
_DOUBLE_LEXICAL = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")

#: the ``xsd:double`` values XML Schema spells by name
_DOUBLE_NAMED = {"INF": math.inf, "-INF": -math.inf, "NaN": math.nan}


def parse_boolean(text: str) -> bool:
    """An ``xsd:boolean`` value: ``true``, ``false``, ``1`` or ``0`` once
    whitespace collapse has stripped its ends, and nothing else."""
    value = text.strip(_XML_SPACE)
    if value in ("true", "1"):
        return True
    if value in ("false", "0"):
        return False
    raise ValueError(f"invalid xsd:boolean lexical value {text[:40]!r}")


def parse_int(text: str) -> int:
    """An ``xsd:int`` value: ASCII ``[+-]?[0-9]+`` once whitespace collapse
    has stripped its ends (``int`` alone also takes ``1_000`` and digits of
    other scripts)."""
    value = text.strip(_XML_SPACE)
    if _INT_LEXICAL.fullmatch(value) is None:
        raise ValueError(f"invalid xsd:int lexical value {text[:40]!r}")
    return int(value)


def parse_double(text: str) -> float:
    """An ``xsd:double`` value: ASCII decimal or scientific notation, or
    ``INF``, ``-INF`` or ``NaN``, once whitespace collapse has stripped its
    ends (``float`` alone also takes ``1_0``, ``infinity`` and digits of
    other scripts)."""
    value = text.strip(_XML_SPACE)
    if _DOUBLE_LEXICAL.fullmatch(value) is not None:
        return float(value)
    if value in _DOUBLE_NAMED:
        return _DOUBLE_NAMED[value]
    raise ValueError(f"invalid xsd:double lexical value {text[:40]!r}")


def format_double(value: float) -> str:
    """The ``xsd:double`` lexical form of *value*: ``repr`` when finite,
    else ``INF``, ``-INF`` or ``NaN``."""
    value = float(value)
    if math.isfinite(value):
        return repr(value)
    if math.isnan(value):
        return "NaN"
    return "INF" if value > 0 else "-INF"


class BuiltinType(enum.Enum):
    """The XSD builtin types the portal schemas use."""

    STRING = "string"
    INT = "int"
    DOUBLE = "double"
    BOOLEAN = "boolean"
    DATETIME = "dateTime"
    ANYURI = "anyURI"
    BASE64 = "base64Binary"

    @staticmethod
    def from_xsd_name(name: str) -> "BuiltinType":
        aliases = {
            "integer": "int",
            "long": "int",
            "short": "int",
            "float": "double",
            "decimal": "double",
        }
        name = aliases.get(name, name)
        for member in BuiltinType:
            if member.value == name:
                return member
        raise ValueError(f"unsupported XSD builtin type: {name!r}")

    def parse(self, text: str):
        """Convert lexical text to the corresponding Python value."""
        if self is BuiltinType.STRING or self is BuiltinType.ANYURI:
            return text
        if self is BuiltinType.INT:
            return parse_int(text)
        if self is BuiltinType.DOUBLE:
            return parse_double(text)
        if self is BuiltinType.BOOLEAN:
            return parse_boolean(text)
        if self is BuiltinType.DATETIME:
            return text.strip()
        if self is BuiltinType.BASE64:
            return text.strip()
        raise AssertionError(self)

    def format(self, value) -> str:
        """Convert a Python value to XSD lexical form."""
        if self is BuiltinType.BOOLEAN:
            return "true" if value else "false"
        if self is BuiltinType.DOUBLE:
            return format_double(value)
        return str(value)


@dataclass
class XsdSimpleType:
    """A named or anonymous restriction of a builtin type."""

    name: str
    base: BuiltinType = BuiltinType.STRING
    enumeration: list[str] = field(default_factory=list)
    pattern: str | None = None
    min_inclusive: float | None = None
    max_inclusive: float | None = None
    min_length: int | None = None
    max_length: int | None = None
    documentation: str = ""

    def check(self, text: str) -> list[str]:
        """Return a list of violation messages for a lexical value."""
        issues: list[str] = []
        try:
            value = self.base.parse(text)
        except ValueError as exc:
            return [str(exc)]
        if self.enumeration and text not in self.enumeration:
            issues.append(
                f"value {text!r} not in enumeration {self.enumeration!r}"
            )
        if self.pattern is not None and re.fullmatch(self.pattern, text) is None:
            issues.append(f"value {text!r} does not match pattern {self.pattern!r}")
        if self.min_inclusive is not None and isinstance(value, (int, float)):
            if value < self.min_inclusive:
                issues.append(f"value {value} < minInclusive {self.min_inclusive}")
        if self.max_inclusive is not None and isinstance(value, (int, float)):
            if value > self.max_inclusive:
                issues.append(f"value {value} > maxInclusive {self.max_inclusive}")
        if self.min_length is not None and len(text) < self.min_length:
            issues.append(f"length {len(text)} < minLength {self.min_length}")
        if self.max_length is not None and len(text) > self.max_length:
            issues.append(f"length {len(text)} > maxLength {self.max_length}")
        return issues


ElementType = Union[BuiltinType, XsdSimpleType, "XsdComplexType", str]


@dataclass
class XsdAttribute:
    """An attribute declaration on a complex type."""

    name: str
    type: BuiltinType | XsdSimpleType = BuiltinType.STRING
    required: bool = False
    default: str | None = None
    documentation: str = ""


@dataclass
class XsdElement:
    """An element declaration (global or inside a sequence).

    ``type`` may be a builtin, a simple type, a complex type, or the *name*
    of a schema-level type resolved by :meth:`XsdSchema.resolve`.
    """

    name: str
    type: ElementType = BuiltinType.STRING
    min_occurs: int = 1
    max_occurs: int = 1  # UNBOUNDED for xs:maxOccurs="unbounded"
    default: str | None = None
    documentation: str = ""

    @property
    def repeated(self) -> bool:
        return self.max_occurs == UNBOUNDED or self.max_occurs > 1

    @property
    def optional(self) -> bool:
        return self.min_occurs == 0


@dataclass
class XsdComplexType:
    """A complex type with sequence content and attributes."""

    name: str
    sequence: list[XsdElement] = field(default_factory=list)
    attributes: list[XsdAttribute] = field(default_factory=list)
    documentation: str = ""
    mixed: bool = False

    def element(self, name: str) -> XsdElement | None:
        for el in self.sequence:
            if el.name == name:
                return el
        return None

    def attribute(self, name: str) -> XsdAttribute | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None


@dataclass
class XsdSchema:
    """A schema: a target namespace, named types, and global elements."""

    target_namespace: str = ""
    elements: list[XsdElement] = field(default_factory=list)
    complex_types: dict[str, XsdComplexType] = field(default_factory=dict)
    simple_types: dict[str, XsdSimpleType] = field(default_factory=dict)

    # -- construction helpers ---------------------------------------------

    def add_complex_type(self, ctype: XsdComplexType) -> XsdComplexType:
        self.complex_types[ctype.name] = ctype
        return ctype

    def add_simple_type(self, stype: XsdSimpleType) -> XsdSimpleType:
        self.simple_types[stype.name] = stype
        return stype

    def add_element(self, element: XsdElement) -> XsdElement:
        self.elements.append(element)
        return element

    def find_element(self, name: str) -> XsdElement | None:
        for el in self.elements:
            if el.name == name:
                return el
        return None

    def resolve_type(self, ref: ElementType) -> ElementType:
        """Resolve a by-name type reference to the actual type object."""
        if isinstance(ref, str):
            if ref in self.complex_types:
                return self.complex_types[ref]
            if ref in self.simple_types:
                return self.simple_types[ref]
            # a dangling type name is a schema-authoring bug (schemas are
            # built in-process, never from the wire): crash loudly
            raise KeyError(f"schema has no type named {ref!r}")  # repro: ignore[REP901]
        return ref

    def resolve(self) -> "XsdSchema":
        """Replace every by-name type reference with its type object."""
        for ctype in self.complex_types.values():
            for el in ctype.sequence:
                el.type = self.resolve_type(el.type)
            for attr in ctype.attributes:
                if isinstance(attr.type, str):
                    resolved = self.resolve_type(attr.type)
                    if isinstance(resolved, XsdComplexType):
                        # schema-authoring bug, same policy as resolve_type
                        raise ValueError(  # repro: ignore[REP901]
                            f"attribute {attr.name!r} cannot have complex type"
                        )
                    attr.type = resolved
        for el in self.elements:
            el.type = self.resolve_type(el.type)
        return self

    # -- serialization ------------------------------------------------------

    def to_xml(self) -> XmlElement:
        """Render the schema as an XSD document element."""
        root = XmlElement(QName(XSD_NS, "schema"))
        if self.target_namespace:
            root.set("targetNamespace", self.target_namespace)
        for stype in self.simple_types.values():
            root.append(_simple_type_to_xml(stype, named=True))
        for ctype in self.complex_types.values():
            root.append(_complex_type_to_xml(ctype, named=True))
        for el in self.elements:
            root.append(_element_to_xml(el))
        return root

    def serialize(self, indent: int | None = 2) -> str:
        return self.to_xml().serialize(indent=indent, declaration=True)


def _annotate(parent: XmlElement, documentation: str) -> None:
    if documentation:
        ann = parent.child(QName(XSD_NS, "annotation"))
        ann.child(QName(XSD_NS, "documentation"), text=documentation)


def _type_ref_name(etype: ElementType) -> str | None:
    """The ``type=`` attribute value for a referencable type, else None."""
    if isinstance(etype, BuiltinType):
        return f"xs:{etype.value}"
    if isinstance(etype, str):
        return etype
    if isinstance(etype, (XsdSimpleType, XsdComplexType)) and etype.name:
        return etype.name
    return None


def _element_to_xml(el: XsdElement) -> XmlElement:
    node = XmlElement(QName(XSD_NS, "element"), {"name": el.name})
    if el.min_occurs != 1:
        node.set("minOccurs", str(el.min_occurs))
    if el.max_occurs != 1:
        node.set(
            "maxOccurs",
            "unbounded" if el.max_occurs == UNBOUNDED else str(el.max_occurs),
        )
    if el.default is not None:
        node.set("default", el.default)
    _annotate(node, el.documentation)
    ref = _type_ref_name(el.type)
    if ref is not None:
        node.set("type", ref)
    elif isinstance(el.type, XsdSimpleType):
        node.append(_simple_type_to_xml(el.type, named=False))
    elif isinstance(el.type, XsdComplexType):
        node.append(_complex_type_to_xml(el.type, named=False))
    return node


def _simple_type_to_xml(stype: XsdSimpleType, *, named: bool) -> XmlElement:
    node = XmlElement(QName(XSD_NS, "simpleType"))
    if named and stype.name:
        node.set("name", stype.name)
    _annotate(node, stype.documentation)
    restriction = node.child(QName(XSD_NS, "restriction"))
    restriction.set("base", f"xs:{stype.base.value}")
    for value in stype.enumeration:
        restriction.child(QName(XSD_NS, "enumeration")).set("value", value)
    facets = [
        ("pattern", stype.pattern),
        ("minInclusive", stype.min_inclusive),
        ("maxInclusive", stype.max_inclusive),
        ("minLength", stype.min_length),
        ("maxLength", stype.max_length),
    ]
    for facet, value in facets:
        if value is not None:
            restriction.child(QName(XSD_NS, facet)).set("value", str(value))
    return node


def _complex_type_to_xml(ctype: XsdComplexType, *, named: bool) -> XmlElement:
    node = XmlElement(QName(XSD_NS, "complexType"))
    if named and ctype.name:
        node.set("name", ctype.name)
    if ctype.mixed:
        node.set("mixed", "true")
    _annotate(node, ctype.documentation)
    if ctype.sequence:
        seq = node.child(QName(XSD_NS, "sequence"))
        for el in ctype.sequence:
            seq.append(_element_to_xml(el))
    for attr in ctype.attributes:
        attr_node = node.child(QName(XSD_NS, "attribute"))
        attr_node.set("name", attr.name)
        ref = _type_ref_name(attr.type)
        if ref:
            attr_node.set("type", ref)
        if attr.required:
            attr_node.set("use", "required")
        if attr.default is not None:
            attr_node.set("default", attr.default)
    return node


# ---------------------------------------------------------------------------
# XSD parsing
# ---------------------------------------------------------------------------


def parse_schema(source: str | XmlElement) -> XsdSchema:
    """Parse an XSD document (subset) into a resolved :class:`XsdSchema`."""
    root = parse_xml(source) if isinstance(source, str) else source
    if root.tag != QName(XSD_NS, "schema"):
        raise ValueError(f"not an XSD schema document: {root.tag}")
    schema = XsdSchema(target_namespace=root.get("targetNamespace", "") or "")
    for node in root.children:
        local = node.tag.local
        if local == "simpleType":
            stype = _parse_simple_type(node)
            schema.add_simple_type(stype)
        elif local == "complexType":
            schema.add_complex_type(_parse_complex_type(node))
        elif local == "element":
            schema.add_element(_parse_element_decl(node))
        elif local == "annotation":
            continue
        else:
            raise ValueError(f"unsupported schema-level construct xs:{local}")
    return schema.resolve()


def _doc_of(node: XmlElement) -> str:
    ann = node.find(QName(XSD_NS, "annotation"))
    if ann is None:
        return ""
    return ann.findtext(QName(XSD_NS, "documentation")).strip()


def _parse_type_ref(name: str) -> ElementType:
    if ":" in name:
        prefix, local = name.split(":", 1)
        # any prefix bound to the XSD namespace denotes a builtin; the parser
        # resolved element tags but attribute *values* keep their prefixes,
        # so accept the conventional xs:/xsd: prefixes.
        if prefix in ("xs", "xsd"):
            return BuiltinType.from_xsd_name(local)
        name = local
    return name  # by-name reference, resolved by XsdSchema.resolve


def _parse_element_decl(node: XmlElement) -> XsdElement:
    name = node.get("name")
    if not name:
        raise ValueError("xs:element requires a name")
    el = XsdElement(name=name, documentation=_doc_of(node))
    min_occurs = node.get("minOccurs")
    if min_occurs is not None:
        el.min_occurs = int(min_occurs)
    max_occurs = node.get("maxOccurs")
    if max_occurs is not None:
        el.max_occurs = UNBOUNDED if max_occurs == "unbounded" else int(max_occurs)
    default = node.get("default")
    if default is not None:
        el.default = default
    type_ref = node.get("type")
    if type_ref is not None:
        el.type = _parse_type_ref(type_ref)
        return el
    inline_complex = node.find(QName(XSD_NS, "complexType"))
    if inline_complex is not None:
        el.type = _parse_complex_type(inline_complex, anonymous_name="")
        return el
    inline_simple = node.find(QName(XSD_NS, "simpleType"))
    if inline_simple is not None:
        el.type = _parse_simple_type(inline_simple, anonymous_name="")
        return el
    el.type = BuiltinType.STRING
    return el


def _parse_simple_type(node: XmlElement, anonymous_name: str = "") -> XsdSimpleType:
    name = node.get("name", anonymous_name) or anonymous_name
    stype = XsdSimpleType(name=name, documentation=_doc_of(node))
    restriction = node.find(QName(XSD_NS, "restriction"))
    if restriction is None:
        return stype
    base = restriction.get("base", "xs:string") or "xs:string"
    parsed = _parse_type_ref(base)
    if not isinstance(parsed, BuiltinType):
        raise ValueError(f"simpleType restriction base must be builtin, got {base!r}")
    stype.base = parsed
    for facet in restriction.children:
        value = facet.get("value", "") or ""
        local = facet.tag.local
        if local == "enumeration":
            stype.enumeration.append(value)
        elif local == "pattern":
            stype.pattern = value
        elif local == "minInclusive":
            stype.min_inclusive = float(value)
        elif local == "maxInclusive":
            stype.max_inclusive = float(value)
        elif local == "minLength":
            stype.min_length = int(value)
        elif local == "maxLength":
            stype.max_length = int(value)
        else:
            raise ValueError(f"unsupported facet xs:{local}")
    return stype


def _parse_complex_type(node: XmlElement, anonymous_name: str = "") -> XsdComplexType:
    name = node.get("name", anonymous_name) or anonymous_name
    ctype = XsdComplexType(
        name=name,
        documentation=_doc_of(node),
        mixed=(node.get("mixed") == "true"),
    )
    seq = node.find(QName(XSD_NS, "sequence"))
    if seq is not None:
        for child in seq.children:
            if child.tag.local != "element":
                raise ValueError(f"unsupported sequence particle xs:{child.tag.local}")
            ctype.sequence.append(_parse_element_decl(child))
    for attr_node in node.findall(QName(XSD_NS, "attribute")):
        attr = XsdAttribute(
            name=attr_node.get("name", "") or "",
            required=(attr_node.get("use") == "required"),
            default=attr_node.get("default"),
            documentation=_doc_of(attr_node),
        )
        type_ref = attr_node.get("type")
        if type_ref:
            parsed = _parse_type_ref(type_ref)
            if isinstance(parsed, str):
                parsed_any: BuiltinType | XsdSimpleType | str = parsed
            else:
                parsed_any = parsed
            if isinstance(parsed_any, XsdComplexType):
                raise ValueError("attributes cannot have complex types")
            attr.type = parsed_any  # type: ignore[assignment]
        ctype.attributes.append(attr)
    return ctype
