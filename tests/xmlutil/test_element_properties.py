"""Property-based tests: serialize/parse round trip for arbitrary trees.

Each serialized tree is read back twice: by this package's parser and by
``xml.etree.ElementTree``, which is what a client built on another toolkit
sees.  Both readings must give back the tree as it was built.
"""

import string
import xml.parsers.expat
from xml.etree import ElementTree

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil.element import XML_NS, XmlElement, parse_xml
from repro.xmlutil.qname import QName

# ASCII and non-ASCII letters and digits, "." and "-": what both parsers
# read as name characters (a name starts with a letter or "_")
names = st.text(
    alphabet=string.ascii_letters + "_.-07\u00e9\u0436\u4e2d\u0663",
    min_size=1, max_size=8,
).filter(
    # "xmlns" is a reserved namespace declaration, not an attribute name;
    # XmlElement.set rejects it (see test_element.py)
    lambda s: (s[0].isalpha() or s[0] == "_") and s != "xmlns"
)

# no namespace, two plain ones, one whose URI its declaration must escape,
# and the XML namespace, which is bound to ``xml`` without a declaration
qnames = st.builds(
    QName,
    st.sampled_from(["", "urn:a", "urn:b", "urn:q?x=1&y=<2>", XML_NS]),
    names,
)

# every character XML can carry: no C0 control other than TAB, LF and CR,
# no U+FFFE or U+FFFF, and (by the codec) no surrogate
_NOT_XML = "".join(
    chr(code) for code in range(0x20) if chr(code) not in "\t\n\r"
) + "\ufffe\uffff"
texts = st.one_of(
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_characters=_NOT_XML),
        max_size=30,
    ),
    # dense in what the parser decodes or scans: references ("&", ";",
    # "#" and markup), non-ASCII letters and digits, and spaces beyond
    # ASCII (U+3000, NEL, NBSP) beside TAB, LF and CR
    st.text(
        alphabet="&;#<>]x09 \u00e9\u0663\u3000\u0085\u00a0\t\n\r",
        max_size=30,
    ),
)


@st.composite
def elements(draw, depth=2):
    el = XmlElement(draw(qnames))
    for key in draw(st.lists(qnames, max_size=3, unique=True)):
        el.set(key, draw(texts))
    n_children = draw(st.integers(0, 3)) if depth else 0
    for _ in range(n_children):
        if draw(st.booleans()):
            el.append(draw(elements(depth=depth - 1)))
        else:
            value = draw(texts)
            if value:
                el.append(value)
    return el


def reading(el: XmlElement) -> tuple:
    """Tag, attributes and content of *el* in Clark notation, with adjacent
    text runs merged (no parser can tell them apart)."""
    content: list = []
    for item in el.content:
        if isinstance(item, XmlElement):
            content.append(reading(item))
        elif content and isinstance(content[-1], str):
            content[-1] += item
        elif item:
            content.append(item)
    attributes = {key.clark(): value for key, value in el.attributes.items()}
    return el.tag.clark(), attributes, content


def etree_reading(el: ElementTree.Element) -> tuple:
    """The same shape as :func:`reading`, from ElementTree's text and tails."""
    content: list = [el.text] if el.text else []
    for child in el:
        content.append(etree_reading(child))
        if child.tail:
            content.append(child.tail)
    return el.tag, dict(el.attrib), content


def declarations(wire: str) -> list[tuple[int, str]]:
    """(index of the declaring element in document order, namespace) for
    each namespace declaration in *wire*, as expat reports them."""
    found: list[tuple[int, str]] = []
    started: list[str] = []
    parser = xml.parsers.expat.ParserCreate(namespace_separator="}")
    # a declaration is reported just before the start tag that carries it
    parser.StartNamespaceDeclHandler = (
        lambda prefix, uri: found.append((len(started), uri))
    )
    parser.StartElementHandler = lambda name, attributes: started.append(name)
    parser.Parse(wire, True)
    return found


def used_namespaces(el: XmlElement) -> set[str]:
    return {
        name.namespace
        for node in el.iter()
        for name in (node.tag, *node.attributes)
    } - {"", XML_NS}


@given(elements())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_roundtrip(el):
    wire = el.serialize()
    parsed = parse_xml(wire)
    assert parsed == el
    # exact text, whitespace included, from both parsers
    assert reading(parsed) == reading(el)
    assert etree_reading(ElementTree.fromstring(wire)) == reading(el)


@given(elements())
@settings(max_examples=100, deadline=None)
def test_each_namespace_is_declared_once_on_the_root(el):
    found = declarations(el.serialize())
    assert all(index == 0 for index, _ in found)
    # once each, and never the XML namespace
    assert sorted(uri for _, uri in found) == sorted(used_namespaces(el))


@given(elements())
@settings(max_examples=50, deadline=None)
def test_indented_serialize_parse_equal_modulo_whitespace(el):
    assert parse_xml(el.serialize(indent=2)) == el
