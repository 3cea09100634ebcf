import copy
import pickle

import pytest

from repro.corba.cdr import CdrError, marshal
from repro.soap.encoding import SoapEncodingError, encode_value
from repro.xmlutil import qname as qname_module
from repro.xmlutil.element import XmlElement, parse_xml
from repro.xmlutil.qname import QName


def test_clark_roundtrip():
    q = QName("urn:x", "local")
    assert QName.parse(q.clark()) == q


def test_bare_name():
    q = QName.parse("item")
    assert q.namespace == "" and q.local == "item"
    assert q.clark() == "item"


def test_empty_local_rejected():
    with pytest.raises(ValueError):
        QName("urn:x", "")


def test_malformed_clark_rejected():
    with pytest.raises(ValueError):
        QName.parse("{unclosed")


def test_hashable_and_distinct():
    a = QName("urn:x", "n")
    b = QName("urn:y", "n")
    assert a != b
    assert len({a, b, QName("urn:x", "n")}) == 2


# -- the tuple QName: immutable, value-equal, bounded parse table ------------

@pytest.mark.parametrize("part", ["namespace", "local"])
def test_parts_cannot_be_assigned(part):
    q = QName("urn:x", "n")
    with pytest.raises(AttributeError):
        setattr(q, part, "other")
    with pytest.raises(AttributeError):
        q.extra = 1  # no instance dict either
    assert q == QName("urn:x", "n")


def test_names_from_parser_parse_and_constructor_find_each_other():
    parsed = parse_xml('<p:a xmlns:p="urn:x" b="1"/>')
    from_parser = parsed.tag
    from_clark = QName.parse("{urn:x}a")
    built = QName("urn:x", "a")
    names = [from_parser, from_clark, built]
    for one in names:
        for other in names:
            assert one == other and hash(one) == hash(other)
        assert {other: True for other in names if other is not one}[one]
    # the attribute the parser keyed is found by each kind of name
    assert parsed.get(QName.parse("b")) == parsed.get(QName("", "b")) == "1"
    assert parsed.get("b") == "1"


def test_malformed_clark_raises_every_time_and_the_table_stays_bounded():
    table = qname_module.CLARK_NAMES
    bound = qname_module.MAX_NAMES
    for _ in range(3):
        with pytest.raises(ValueError):
            QName.parse("{unclosed")
    for i in range(10_000):
        name = QName.parse(f"{{urn:cycle}}n{i}" if i % 2 else f"n{i}")
        assert name.local == f"n{i}"
        assert len(table) <= bound
        if i % 1000 == 0:
            with pytest.raises(ValueError):
                QName.parse("{unclosed")
            with pytest.raises(ValueError):
                QName.parse("{urn:x}")  # an empty local part
    with pytest.raises(ValueError):
        QName.parse("{unclosed")
    assert "{unclosed" not in table and "{urn:x}" not in table
    assert len(table) <= bound


def test_clark_notation_from_str_format_and_fstrings():
    q = QName("urn:x", "n")
    bare = QName("", "item")
    assert str(q) == format(q) == f"{q}" == "{urn:x}n"
    assert str(bare) == format(bare) == f"{bare}" == "item"
    assert f"not a SOAP envelope: {q}" == "not a SOAP envelope: {urn:x}n"
    assert repr(q) == "QName(namespace='urn:x', local='n')"


def test_copies_and_pickles_are_equal_qnames():
    q = QName("urn:x", "n")
    for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert twin == q and type(twin) is QName
        assert (twin.namespace, twin.local) == ("urn:x", "n")
    tree = XmlElement(q, {QName("urn:y", "a"): "1"})
    assert copy.deepcopy(tree) == tree


def test_a_qname_is_its_tuple():
    # documented: a QName equals, hashes and sorts as (namespace, local)
    q = QName("urn:x", "n")
    assert q == ("urn:x", "n") and hash(q) == hash(("urn:x", "n"))
    assert sorted([QName("urn:y", "a"), q, QName("", "z")]) == [
        QName("", "z"), q, QName("urn:y", "a"),
    ]


def test_a_qname_value_is_refused_not_encoded_as_an_array():
    with pytest.raises(SoapEncodingError) as caught:
        encode_value("p", QName("urn:x", "n"))
    assert caught.value.code == "Portal.Encoding"
    with pytest.raises(CdrError):
        marshal(QName("urn:x", "n"))
    assert marshal(("urn:x", "n")) == marshal(["urn:x", "n"])
