"""XML infrastructure for the portal reproduction.

Everything above this layer (SOAP, WSDL, UDDI, application descriptors, the
schema wizard) speaks XML.  This package provides:

- :mod:`repro.xmlutil.qname` — namespace-qualified names.
- :mod:`repro.xmlutil.element` — a lightweight XML infoset
  (:class:`XmlElement`), a serializer, and a parser built on expat.
- :mod:`repro.xmlutil.schema` — an XSD-subset Schema Object Model (SOM), the
  analogue of Castor's SOM used by the paper's schema wizard (Figure 3).
- :mod:`repro.xmlutil.validation` — instance validation against a SOM.
- :mod:`repro.xmlutil.binding` — Castor-style data-binding class generation
  (schema element -> Python class with typed fields and marshal/unmarshal).
"""

from repro.xmlutil.qname import QName
from repro.xmlutil.element import XmlElement, XmlParseError, parse_xml
from repro.xmlutil.schema import (
    XsdSchema,
    XsdElement,
    XsdComplexType,
    XsdSimpleType,
    XsdAttribute,
    BuiltinType,
    parse_schema,
)
from repro.xmlutil.validation import SchemaValidator, ValidationIssue
from repro.xmlutil.binding import BindingGenerator, BoundObject, bind_schema

__all__ = [
    "QName",
    "XmlElement",
    "XmlParseError",
    "parse_xml",
    "XsdSchema",
    "XsdElement",
    "XsdComplexType",
    "XsdSimpleType",
    "XsdAttribute",
    "BuiltinType",
    "parse_schema",
    "SchemaValidator",
    "ValidationIssue",
    "BindingGenerator",
    "BoundObject",
    "bind_schema",
]
