import base64
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.datamgmt import make_request_xml
from repro.soap.encoding import (
    SoapEncodingError,
    _wire_text,
    decode_value,
    encode_value,
)
from repro.soap.message import request_envelope
from repro.xmlutil.element import CData, XmlElement, parse_xml


@pytest.mark.parametrize(
    "value",
    [
        "plain string",
        "",
        42,
        -1,
        3.14,
        True,
        False,
        None,
        b"\x00\x01binary\xff",
        ["a", 1, None],
        {"k": "v", "nested": {"x": [1, 2]}},
        [],
        {},
    ],
)
def test_roundtrip_values(value):
    node = encode_value("p", value)
    assert decode_value(node) == value


def test_roundtrip_through_wire_text():
    value = {"items": [1, "two", 3.0, False, None], "blob": b"abc"}
    text = encode_value("p", value).serialize()
    assert decode_value(parse_xml(text)) == value


def test_xml_literal_passthrough():
    payload = XmlElement("jobs")
    payload.child("job", text="j1")
    node = encode_value("p", payload)
    decoded = decode_value(parse_xml(node.serialize()))
    assert isinstance(decoded, XmlElement)
    assert decoded == payload


def test_unencodable_type_rejected():
    with pytest.raises(SoapEncodingError):
        encode_value("p", object())
    with pytest.raises(SoapEncodingError):
        encode_value("p", {1: "non-string key"})


@pytest.mark.parametrize("value, text", [
    (float("inf"), "INF"),
    (float("-inf"), "-INF"),
    (float("nan"), "NaN"),
])
def test_non_finite_doubles_travel_in_xml_schema_spelling(value, text):
    wire = encode_value("p", value).serialize()
    assert ElementTree.fromstring(wire).text == text
    decoded = decode_value(parse_xml(wire))
    assert repr(decoded) == repr(value)


def test_bool_not_confused_with_int():
    assert decode_value(encode_value("p", True)) is True
    assert decode_value(encode_value("p", 1)) == 1


def test_line_wrapped_base64_still_decodes():
    data = bytes(range(256))
    node = encode_value("p", data)
    node.set_text("\n" + base64.encodebytes(data).decode().replace("\n", "\r\n"))
    assert decode_value(node) == data


def _escaped(node: XmlElement) -> str:
    """*node* serialized with every string in its escaped wire form."""
    copy = node.clone()
    for el in copy.iter():
        el.content = [str(c) if isinstance(c, str) else c for c in el.content]
    return copy.serialize()


def test_markup_string_travels_as_one_cdata_section():
    request = make_request_xml(
        [("ls", ["/home/alice"]), ("cat", ["/home/alice/notes & todo.txt"])]
    )
    wire = encode_value("param0", request).serialize()
    assert wire.endswith(f"><![CDATA[{request}]]></param0>")
    assert len(wire) < len(_escaped(encode_value("param0", request)))
    envelope = request_envelope("urn:srb", "xml_call", [request]).serialize()
    # a conforming parser reads the same text back from the envelope
    assert next(ElementTree.fromstring(envelope).iter("param0")).text == request


#: the tracing-overhead benchmark's RSL payload (one ``&``)
O1_PAYLOAD = (
    "&(executable=/usr/local/bin/povray)"
    '(arguments="+i scene.pov" "+o frame042.png" "+w 1024" "+h 768")'
    "(directory=/home/gridsphere/renders/job-042)"
    "(stdout=frame042.out)(stderr=frame042.err)"
    "(count=4)(maxWallTime=30)(queue=normal)"
)


def test_rsl_payload_is_sent_as_before():
    assert encode_value("param0", O1_PAYLOAD).serialize() == (
        '<param0 ns0:type="xsd:string" '
        'xmlns:ns0="http://www.w3.org/2001/XMLSchema-instance">'
        "&amp;(executable=/usr/local/bin/povray)"
        '(arguments="+i scene.pov" "+o frame042.png" "+w 1024" "+h 768")'
        "(directory=/home/gridsphere/renders/job-042)"
        "(stdout=frame042.out)(stderr=frame042.err)"
        "(count=4)(maxWallTime=30)(queue=normal)</param0>"
    )


@pytest.mark.parametrize("value", [
    "<a><b>",
    "&&&",
    "<a>]]>" + "<b/>" * 8,
    "<a>\r\n" + "<b/>" * 8,
], ids=["escapes-add-12", "three-amps", "holds-cdata-end", "holds-cr"])
def test_strings_that_stay_escaped(value):
    node = encode_value("p", value)
    wire = node.serialize()
    assert "CDATA" not in wire
    assert wire == _escaped(node)
    assert decode_value(parse_xml(wire)) == value


def _reference_wire_text(value: str) -> str:
    """The wire-form rule counted over the whole string: ``_wire_text``
    counts a head first, and must choose exactly what this chooses."""
    escapes = 4 * value.count("&") if "&" in value else 0
    if "<" in value or ">" in value:
        escapes += 3 * (value.count("<") + value.count(">"))
    if escapes > 12 and "]]>" not in value and "\r" not in value:
        return CData(value)
    return value


# markup-dense strings, some padded past the head ``_wire_text`` counts first
markup_runs = st.text(alphabet="<>&]ab =/\r", max_size=40)
padded_markup = st.builds(
    lambda head, pad, tail: head + "x" * pad + tail,
    markup_runs, st.integers(0, 1100), markup_runs,
)


@given(st.one_of(markup_runs, padded_markup))
@settings(max_examples=300, deadline=None)
def test_wire_form_choice_matches_the_whole_string_count(value):
    chosen = _wire_text(value)
    assert chosen == value
    assert type(chosen) is type(_reference_wire_text(value))


# strings that survive XML text content (no control chars, no lone CR)
wire_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\r",
                           categories=("L", "N", "P", "S", "Zs")),
    max_size=40,
)

# markup-heavy strings, which may take either wire form
markup_text = st.text(alphabet="<>&]ab =/", max_size=40)

soap_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2**53, 2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        wire_text,
        markup_text,
        st.binary(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(soap_values)
@settings(max_examples=120, deadline=None)
def test_encode_decode_property(value):
    node = encode_value("p", value)
    text = node.serialize()
    assert decode_value(parse_xml(text)) == value
    assert len(text) <= len(_escaped(node))


struct_with_any_keys = st.dictionaries(
    st.text(max_size=8),
    st.integers() | st.dictionaries(st.text(max_size=4), st.integers(),
                                    max_size=3),
    max_size=6,
)


@given(struct_with_any_keys)
@settings(max_examples=200, deadline=None)
def test_every_struct_key_crosses_the_wire(value):
    text = encode_value("p", value).serialize()
    ElementTree.fromstring(text)  # a conformant parser accepts the names
    assert decode_value(parse_xml(text)) == value


def test_struct_key_wire_names():
    names = {
        key: encode_value("p", {key: 1}).children[0].tag.local
        for key in ("free_cpus", "a.b-c", "a b", "", "0", "_x41", "é")
    }
    assert names == {
        "free_cpus": "free_cpus",
        "a.b-c": "a.b-c",
        "a b": "a_x0020_b",
        "": "_x_",
        "0": "_x0030_",
        "_x41": "_x005F_x41",
        "é": "_x00E9_",
    }
