import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil.binding import bind_schema
from repro.xmlutil.element import XmlParseError
from repro.xmlutil.schema import parse_schema

XSD = """\
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:b">
  <xs:complexType name="Tag">
    <xs:sequence><xs:element name="value" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="Record">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="count" type="xs:int" default="1"/>
      <xs:element name="ratio" type="xs:double" minOccurs="0"/>
      <xs:element name="active" type="xs:boolean" minOccurs="0"/>
      <xs:element name="tag" type="Tag" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:string" use="required"/>
  </xs:complexType>
  <xs:element name="record" type="Record"/>
</xs:schema>
"""


@pytest.fixture(scope="module")
def classes():
    return bind_schema(parse_schema(XSD))


def test_generated_class_shape(classes):
    Record = classes["Record"]
    obj = Record(title="t", id="r1")
    assert obj.title == "t"
    assert obj.count == 1  # schema default applied
    assert obj.tag == []
    # bean-style accessors exist
    obj.set_count(7)
    assert obj.get_count() == 7


def test_nested_marshal_unmarshal(classes):
    Record, Tag = classes["Record"], classes["Tag"]
    obj = Record(title="hello", id="r2", ratio=0.5, active=True)
    obj.add_tag(Tag(value="x"))
    obj.add_tag(Tag(value="y"))
    back = Record.unmarshal(obj.marshal())
    assert back == obj
    assert [t.value for t in back.tag] == ["x", "y"]
    assert back.active is True and back.ratio == 0.5


def test_delete_from_repeated(classes):
    Record, Tag = classes["Record"], classes["Tag"]
    obj = Record(title="d", id="r3")
    tag = Tag(value="gone")
    obj.add_tag(tag)
    obj.delete_tag(tag)
    assert obj.tag == []


def test_unknown_constructor_field_rejected(classes):
    with pytest.raises(AttributeError):
        classes["Record"](bogus="x")


def test_docstring_from_schema(classes):
    assert "Generated binding" in (classes["Tag"].__doc__ or "")


#: the characters XML cannot carry: C0 controls other than TAB, LF and CR,
#: and U+FFFE and U+FFFF (the codec leaves surrogates out of every draw)
_NOT_XML = "".join(
    chr(code) for code in range(0x20) if chr(code) not in "\t\n\r"
) + "\ufffe\uffff"
xml_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters=_NOT_XML),
    max_size=20,
)


@given(
    title=xml_text.filter(lambda s: s.strip() == s and "\r" not in s),
    count=st.integers(-10**6, 10**6),
    ratio=st.floats(allow_nan=False, allow_infinity=False, width=32),
    tags=st.lists(xml_text.filter(
        lambda s: s and s.strip() == s and "\r" not in s), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_marshal_unmarshal_property(title, count, ratio, tags):
    classes = bind_schema(parse_schema(XSD))
    Record, Tag = classes["Record"], classes["Tag"]
    obj = Record(title=title, id="p", count=count, ratio=float(ratio))
    for tag in tags:
        obj.add_tag(Tag(value=tag))
    assert Record.unmarshal(obj.marshal()) == obj


@given(
    before=xml_text, bad=st.sampled_from(_NOT_XML), after=xml_text,
)
@settings(max_examples=30, deadline=None)
def test_unmarshal_refuses_a_character_xml_cannot_carry(before, bad, after):
    # the marshaller writes the character raw; the parser refuses it
    Record = bind_schema(parse_schema(XSD))["Record"]
    wire = Record(title=before + bad + after, id="p").marshal()
    with pytest.raises(XmlParseError) as caught:
        Record.unmarshal(wire)
    assert caught.value.pos == wire.index(bad)
