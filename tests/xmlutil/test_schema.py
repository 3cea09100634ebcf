import math

import pytest

from repro.xmlutil.schema import (
    UNBOUNDED,
    BuiltinType,
    XsdComplexType,
    XsdElement,
    XsdSchema,
    XsdSimpleType,
    parse_schema,
)

XSD = """\
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:t">
  <xs:simpleType name="Color">
    <xs:annotation><xs:documentation>A color.</xs:documentation></xs:annotation>
    <xs:restriction base="xs:string">
      <xs:enumeration value="red"/><xs:enumeration value="blue"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:simpleType name="Port">
    <xs:restriction base="xs:int">
      <xs:minInclusive value="1"/><xs:maxInclusive value="65535"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:complexType name="Item">
    <xs:sequence>
      <xs:element name="label" type="xs:string"/>
      <xs:element name="color" type="Color" minOccurs="0"/>
      <xs:element name="tag" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:string" use="required"/>
  </xs:complexType>
  <xs:element name="item" type="Item"/>
</xs:schema>
"""


def test_parse_schema_structure():
    schema = parse_schema(XSD)
    assert schema.target_namespace == "urn:t"
    item = schema.complex_types["Item"]
    assert [el.name for el in item.sequence] == ["label", "color", "tag"]
    assert item.sequence[2].max_occurs == UNBOUNDED
    assert item.attribute("id").required
    color = schema.simple_types["Color"]
    assert color.enumeration == ["red", "blue"]
    assert color.documentation == "A color."
    # references resolved to objects
    assert isinstance(item.sequence[1].type, XsdSimpleType)


def test_simple_type_facets():
    schema = parse_schema(XSD)
    port = schema.simple_types["Port"]
    assert port.check("80") == []
    assert port.check("0") != []
    assert port.check("70000") != []
    assert port.check("notanumber") != []


def test_builtin_lexical_roundtrip():
    assert BuiltinType.INT.parse("42") == 42
    assert BuiltinType.BOOLEAN.parse("true") is True
    assert BuiltinType.BOOLEAN.format(False) == "false"
    assert BuiltinType.DOUBLE.parse(BuiltinType.DOUBLE.format(1.5)) == 1.5
    with pytest.raises(ValueError):
        BuiltinType.BOOLEAN.parse("maybe")


@pytest.mark.parametrize("builtin, text, value", [
    (BuiltinType.BOOLEAN, " 1\n", True),
    (BuiltinType.BOOLEAN, "\tfalse ", False),
    (BuiltinType.INT, " -7\r\n", -7),
    (BuiltinType.INT, "+3", 3),
    (BuiltinType.DOUBLE, " 1.5\n", 1.5),
    (BuiltinType.DOUBLE, "-.5E+2", -50.0),
    (BuiltinType.DOUBLE, "7.", 7.0),
    (BuiltinType.DOUBLE, "\tINF ", math.inf),
    (BuiltinType.DOUBLE, "-INF", -math.inf),
])
def test_builtin_lexical_forms_collapse_whitespace(builtin, text, value):
    assert builtin.parse(text) == value


def test_double_not_a_number_is_spelled_nan():
    assert math.isnan(BuiltinType.DOUBLE.parse(" NaN "))
    assert BuiltinType.DOUBLE.format(math.nan) == "NaN"


@pytest.mark.parametrize("value, text", [
    (math.inf, "INF"),
    (-math.inf, "-INF"),
    (1.5, "1.5"),
    (1e16, "1e+16"),
    (-0.0, "-0.0"),
    (5e-324, "5e-324"),
])
def test_double_formats_in_its_lexical_form(value, text):
    # finite values keep repr, so every finite double's wire form is unchanged
    assert BuiltinType.DOUBLE.format(value) == text
    assert BuiltinType.DOUBLE.parse(text) == value


@pytest.mark.parametrize("builtin, text", [
    (BuiltinType.BOOLEAN, "yes"),
    (BuiltinType.BOOLEAN, "TRUE"),
    (BuiltinType.BOOLEAN, "\u00a01"),
    (BuiltinType.INT, "1_000"),
    (BuiltinType.INT, "\u0661\u0662"),
    (BuiltinType.INT, "\u00a012"),
    (BuiltinType.INT, "1.0"),
    (BuiltinType.DOUBLE, "1_0"),
    (BuiltinType.DOUBLE, "infinity"),
    (BuiltinType.DOUBLE, "inf"),
    (BuiltinType.DOUBLE, "+INF"),
    (BuiltinType.DOUBLE, "nan"),
    (BuiltinType.DOUBLE, "\u0661.5"),
    (BuiltinType.DOUBLE, "\u00a01.5"),
    (BuiltinType.DOUBLE, "."),
    (BuiltinType.DOUBLE, "1e"),
    (BuiltinType.DOUBLE, "0x1p3"),
    (BuiltinType.DOUBLE, ""),
])
def test_builtin_lexical_forms_are_strict(builtin, text):
    # the same rule decode_value applies to SOAP parameters
    with pytest.raises(ValueError):
        builtin.parse(text)


def test_schema_xsd_serialization_roundtrip():
    original = parse_schema(XSD)
    reparsed = parse_schema(original.serialize())
    assert sorted(reparsed.complex_types) == sorted(original.complex_types)
    assert sorted(reparsed.simple_types) == sorted(original.simple_types)
    item = reparsed.complex_types["Item"]
    assert [el.name for el in item.sequence] == ["label", "color", "tag"]
    assert reparsed.simple_types["Color"].enumeration == ["red", "blue"]


def test_programmatic_schema_with_unresolved_ref():
    schema = XsdSchema(target_namespace="urn:p")
    schema.add_complex_type(
        XsdComplexType("Box", sequence=[XsdElement("part", "Part")])
    )
    with pytest.raises(KeyError):
        schema.resolve()
    schema.add_complex_type(XsdComplexType("Part", sequence=[XsdElement("n")]))
    schema.resolve()
    assert isinstance(schema.complex_types["Box"].sequence[0].type, XsdComplexType)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        BuiltinType.from_xsd_name("hexBinary")


def test_parse_rejects_non_schema_document():
    with pytest.raises(ValueError):
        parse_schema("<notaschema/>")
