from xml.etree import ElementTree

import pytest

from repro.xmlutil.element import XML_NS, XmlElement, XmlParseError, parse_xml
from repro.xmlutil.qname import QName


def test_builder_and_access():
    root = XmlElement("root", {"id": "1"})
    root.child("a", text="x")
    root.child("a", text="y")
    root.child("b").set("k", "v")
    assert root.get("id") == "1"
    assert [c.text for c in root.findall("a")] == ["x", "y"]
    assert root.findtext("b") == ""
    assert root.find("b").get("k") == "v"
    assert root.find("missing") is None


def test_namespaced_find():
    root = XmlElement(QName("urn:x", "root"))
    root.child(QName("urn:x", "item"), text="1")
    root.child(QName("urn:y", "item"), text="2")
    # bare name matches any namespace
    assert len(root.findall("item")) == 2
    # full QName matches exactly
    assert root.findtext(QName("urn:y", "item")) == "2"


def test_serialize_escapes_special_characters():
    el = XmlElement("t", {"a": 'x"<>&'}, text="<body> & more")
    text = el.serialize()
    assert "&lt;body&gt; &amp; more" in text
    assert "&quot;" in text
    assert parse_xml(text) == el


def test_whitespace_reads_back_as_written():
    # raw, a parser would read the attribute's TAB, LF and CR as spaces and
    # the text's CR as LF
    el = XmlElement("a", {"t": "x\ty\nz\rw"}, text="p\rq")
    wire = el.serialize()
    assert wire == '<a t="x&#9;y&#10;z&#13;w">p&#13;q</a>'
    read = ElementTree.fromstring(wire)
    assert (read.get("t"), read.text) == ("x\ty\nz\rw", "p\rq")
    assert parse_xml(wire) == el


def test_xml_namespace_keeps_its_reserved_prefix_undeclared():
    el = XmlElement("a", {QName(XML_NS, "lang"): "en"})
    el.child(QName("urn:x", "b")).set(QName(XML_NS, "space"), "preserve")
    wire = el.serialize()
    assert wire == (
        '<a xml:lang="en" xmlns:ns0="urn:x"><ns0:b xml:space="preserve"/></a>'
    )
    assert ElementTree.fromstring(wire).get(f"{{{XML_NS}}}lang") == "en"
    assert parse_xml(wire) == el


def test_namespaces_are_declared_once_on_the_root():
    root = XmlElement(QName("urn:r", "r"))
    for index in range(3):
        root.child("arg", text=str(index)).set(QName("urn:t", "type"), "x")
    assert root.serialize() == (
        '<ns0:r xmlns:ns0="urn:r" xmlns:ns1="urn:t">'
        '<arg ns1:type="x">0</arg><arg ns1:type="x">1</arg>'
        '<arg ns1:type="x">2</arg></ns0:r>'
    )
    # an empty root, and an indented document after its XML declaration
    assert XmlElement(QName("urn:r", "r")).serialize() == (
        '<ns0:r xmlns:ns0="urn:r"/>'
    )
    assert root.serialize(indent=1, declaration=True).splitlines()[:3] == [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<ns0:r xmlns:ns0="urn:r" xmlns:ns1="urn:t">',
        ' <arg ns1:type="x">0</arg>',
    ]


def test_parse_basic_document():
    doc = parse_xml(
        '<?xml version="1.0"?><!-- hi --><root a="1">text<child/>tail</root>'
    )
    assert doc.tag.local == "root"
    assert doc.get("a") == "1"
    assert doc.text == "texttail"
    assert len(doc.children) == 1


def test_parse_namespaces_and_default_ns():
    doc = parse_xml(
        '<r xmlns="urn:d" xmlns:p="urn:p" p:a="1"><p:c/><c/></r>'
    )
    assert doc.tag == QName("urn:d", "r")
    # default namespace does not apply to attributes
    assert doc.get(QName("urn:p", "a")) == "1"
    tags = [c.tag for c in doc.children]
    assert tags == [QName("urn:p", "c"), QName("urn:d", "c")]


def test_parse_cdata_and_entities():
    doc = parse_xml(
        "<t><![CDATA[<raw> & stuff]]> &amp;&#65;&#x42;"
        "&#0067;&#x0044;&#x1F600;&#9;&#xD;</t>"
    )
    assert doc.text == "<raw> & stuff &ABCD\U0001F600\t\r"


@pytest.mark.parametrize("wire, text", [
    ("<t>&amp;&lt;&gt;&quot;&apos;</t>", "&<>\"'"),
    ("<t>&amp;(count=4)</t>", "&(count=4)"),
    ("<t>(count=4)&gt;</t>", "(count=4)>"),
    ("<t>&#65;&#x42;&#0067;&#x00044;&#x45;</t>", "ABCDE"),
    ("<t>a&amp;b&#38;c&#x26;d</t>", "a&b&c&d"),
    ("<t>&amp;amp;&#38;#65;</t>", "&amp;&#65;"),
    ("<t>\u00e9&#xE9;&#233;\u0663&#x663;</t>", "\u00e9\u00e9\u00e9\u0663\u0663"),
    ("<t>&#x1F600;x&#128512;</t>", "\U0001F600x\U0001F600"),
    ("<t>a<![CDATA[&amp;]]>&amp;<b/>&lt;</t>", "a&amp;&<"),
], ids=["adjacent", "first", "last", "decimal-and-hex", "interleaved",
        "decoded-once", "non-ascii", "astral", "around-cdata-and-child"])
def test_parse_entity_dense_text(wire, text):
    assert parse_xml(wire).text == text


def test_parse_references_in_attribute_values():
    doc = parse_xml(
        '<a v="&amp;&lt;&#9;&#10;x&quot;" w=\'&apos;&amp;\' u="&#x26;"/>'
    )
    assert [doc.get("v"), doc.get("w"), doc.get("u")] == [
        "&<\t\nx\"", "'&", "&",
    ]


# each wire holds one malformed reference (the middle column says what is
# wrong with it) in the text run or attribute value that starts at the
# offset in the last column
@pytest.mark.parametrize("wire, fault, run", [
    ("<a>&unknown;</a>", "unknown entity &unknown;", 3),
    ("<a>&AMP;</a>", "unknown entity &AMP;", 3),
    ("<a>&;</a>", "unknown entity &;", 3),
    ("<a>& amp;</a>", "unknown entity & amp;", 3),
    ("<a>&a&b;</a>", "unknown entity &a&b;", 3),
    ("<a>x &amp</a>", "unterminated entity reference", 3),
    ("<a>&amp;&</a>", "unterminated entity reference", 3),
    ("<a>&#xZZ;</a>", "malformed character reference &#xZZ;", 3),
    ("<a>&#;</a>", "malformed character reference &#;", 3),
    ("<a>&#X;</a>", "malformed character reference &#X;", 3),
    ("<a>&#-1;</a>", "malformed character reference &#-1;", 3),
    ("<a>&#6_5;</a>", "malformed character reference &#6_5;", 3),
    ("<a>&#99999999999999999999;</a>",
     "malformed character reference &#99999999999999999999;", 3),
    ("<a>&#xD800;</a>", "&#xD800; names no XML character", 3),
    ("<a>&#x110000;</a>", "&#x110000; names no XML character", 3),
    ("<a>&#1;</a>", "&#1; names no XML character", 3),
    ("<a>&#xFFFE;</a>", "&#xFFFE; names no XML character", 3),
    ('<a v="&#xD800;"/>', "&#xD800; names no XML character", 6),
    ("<a v='x &bogus; y'/>", "unknown entity &bogus;", 6),
    ("<a v='&lt'/>", "unterminated entity reference", 6),
    ("<a w='1' v='&amp;&#0;'/>", "&#0; names no XML character", 12),
    ("<a>ok<b/>tail &zz;</a>", "unknown entity &zz;", 9),
    ("<a><![CDATA[&x;]]>&amp;&y;</a>", "unknown entity &y;", 18),
])
def test_parse_malformed_reference_errors(wire, fault, run):
    with pytest.raises(XmlParseError) as caught:
        parse_xml(wire)
    if wire[run - 1] in "'\"":  # an attribute value: in its start tag
        low, high = wire.rfind("<", 0, run), wire.index(">", run)
    else:  # a text run: in it, or at the tag that ends it
        low, high = run, wire.index("<", run)
    assert low <= caught.value.pos <= high


def test_parse_names_and_whitespace_beyond_ascii():
    # letters, digits and name characters beyond ASCII make names (U+00B7
    # is one), but only space, TAB, LF and CR are whitespace
    doc = parse_xml(
        " <\u00e9\u0663 a\u0663='1'\tb\u00b7='2'\n>x</\u00e9\u0663\r\n>\n"
    )
    assert doc.tag == QName("", "\u00e9\u0663")
    assert doc.attributes == {
        QName("", "a\u0663"): "1", QName("", "b\u00b7"): "2",
    }
    assert doc.text == "x"
    for space in "\u3000\u0085\u2028\u00a0":
        with pytest.raises(XmlParseError) as caught:
            parse_xml(f"<a{space}b='1'/>")
        assert caught.value.pos == 2


def test_parse_middle_dot_continues_a_name_but_cannot_start_one():
    # U+00B7 is an XML name character, not a name start character
    assert parse_xml("<a\u00b7/>").tag == QName("", "a\u00b7")
    for wire, offset in [("<\u00b7a/>", 1), ("<a \u00b7b='1'/>", 3)]:
        with pytest.raises(XmlParseError) as caught:
            parse_xml(wire)
        assert caught.value.pos == offset


# each wire holds a space XML does not allow (U+3000) in the markup that
# holds the offset in the last column
@pytest.mark.parametrize("wire, message, offset", [
    ("<a></a\u3000x>", "malformed close tag", 7),
    ("\u3000\u0085", "expected root element", 2),
])
def test_parse_name_and_whitespace_errors(wire, message, offset):
    with pytest.raises(XmlParseError) as caught:
        parse_xml(wire)
    # the error lies in that markup, at the space or before it
    start = max(wire.rfind("<", 0, offset), 0)
    assert start <= caught.value.pos <= wire.index("\u3000")


@pytest.mark.parametrize("wire, name, offset", [
    # an empty local part
    ("<:/>", ":", 1),
    ('<r xmlns:p="urn:p"><p:/></r>', "p:", 20),
    ('<a :="1"/>', ":", 3),
    ('<a xmlns:b="urn:b" b:="1"/>', "b:", 19),
    # an empty prefix: no default namespace is borrowed, for attributes least
    ("<:a/>", ":a", 1),
    ('<a xmlns="urn:x" :b="1"/>', ":b", 17),
    # more than one colon
    ('<a:b:c xmlns:a="urn:a"/>', "a:b:c", 1),
    # a namespace declaration must name its prefix
    ('<a xmlns:="urn:x"><b/></a>', "xmlns:", 3),
])
def test_parse_refuses_names_that_are_not_qnames(wire, name, offset):
    assert wire[offset:].startswith(name)
    with pytest.raises(XmlParseError) as caught:
        parse_xml(wire)
    # the error lies inside the start tag that holds the name
    start = wire.rfind("<", 0, offset + 1)
    assert start <= caught.value.pos < wire.index(">", offset)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "<a>",
        "<a></b>",
        "<a attr></a>",
        "<a x=1/>",
        "<a/><b/>",
        "<a>&unknown;</a>",
        "no xml here",
        "<a ><b></a></b>",
        # character references: only ASCII decimal or x-prefixed hex
        # digits, naming a character XML allows
        "<a>&#99999999999999999999;</a>",
        "<a>&#xZZ;</a>",
        "<a>&#;</a>",
        "<a>&#-1;</a>",
        "<a>&#6_5;</a>",
        "<a>&#xD800;</a>",
        "<a>&#x110000;</a>",
        "<a>&#1;</a>",
        '<a v="&#xD800;"/>',
        # nesting beyond the parser's depth limit
        pytest.param("<a>" * 257 + "</a>" * 257, id="257-deep"),
        pytest.param("<a>" * 256 + "<b/>" + "</a>" * 256, id="257-deep-empty"),
        pytest.param("<a>" * 600 + "</a>" * 600, id="600-deep"),
    ],
)
def test_parse_errors(bad):
    with pytest.raises(XmlParseError):
        parse_xml(bad)


def test_parse_accepts_the_deepest_allowed_nesting():
    doc = parse_xml("<a>" * 255 + "<b/>" + "</a>" * 255)
    depth = 1
    while doc.children:
        doc = doc.children[0]
        depth += 1
    assert (depth, doc.tag.local) == (256, "b")


def test_equality_ignores_whitespace_nodes():
    a = parse_xml("<r>\n  <c>x</c>\n</r>")
    b = parse_xml("<r><c>x</c></r>")
    assert a == b


def test_iter_depth_first():
    doc = parse_xml("<a><b><c/></b><d/></a>")
    assert [e.tag.local for e in doc.iter()] == ["a", "b", "c", "d"]


def test_indent_serialization_parses_back():
    root = XmlElement("a")
    root.child("b").child("c", text="x")
    text = root.serialize(indent=2, declaration=True)
    assert text.startswith("<?xml")
    assert parse_xml(text) == root
