"""Namespace-qualified XML names.

A :class:`QName` is an immutable ``tuple`` subclass ``(namespace, local)``,
so hashing and equality run in C: every attribute dict the parser fills
and every QName-keyed lookup in the SOAP and WSDL layers costs no Python
frame.  The price of being a tuple is that a QName equals the plain
2-tuple ``(namespace, local)``, hashes like it and sorts like it; and that
``%``-formatting one would spread it over the format's arguments, so it is
always formatted with ``str``, ``format`` or an f-string, which give Clark
notation.

:meth:`QName.parse` answers from :data:`CLARK_NAMES`, a table of the
Clark-notation strings it has parsed, so ``XmlElement("item")`` or
``get("Issuer")`` builds no QName after the first use.  The table is
cleared when it holds :data:`MAX_NAMES` entries, so a run of distinct
names refills it instead of growing it; a string that does not parse is
never entered.  A QName is found by value, never by identity, so clearing
the table changes no lookup.
"""

from __future__ import annotations

from operator import itemgetter

#: the entries :data:`CLARK_NAMES` holds before it is cleared
MAX_NAMES = 4096

#: Clark-notation text -> its QName, for :meth:`QName.parse`
CLARK_NAMES: dict[str, "QName"] = {}


class QName(tuple):
    """A namespace-qualified name, ``{namespace}local``.

    ``namespace`` may be the empty string for unqualified names.  A QName
    is the tuple ``(namespace, local)``: it equals, hashes and sorts as
    that plain 2-tuple does, so it may key dictionaries throughout the
    SOAP/WSDL layers.
    """

    __slots__ = ()

    namespace = property(itemgetter(0), doc="The namespace URI, or ''.")
    local = property(itemgetter(1), doc="The local part, never empty.")

    def __new__(cls, namespace: str, local: str) -> "QName":
        if not local:
            raise ValueError("QName local part must be non-empty")
        return tuple.__new__(cls, (namespace, local))

    def __getnewargs__(self) -> tuple[str, str]:
        # tuple's own would pass the pair as one argument: copy, deepcopy
        # and pickle rebuild a QName from its two parts
        return tuple(self)

    @staticmethod
    def parse(text: str) -> "QName":
        """Parse Clark notation (``{ns}local``) or a bare local name."""
        qname = CLARK_NAMES.get(text)
        if qname is not None:
            return qname
        if text.startswith("{"):
            end = text.find("}")
            if end < 0:
                raise ValueError(f"malformed Clark-notation QName: {text!r}")
            qname = QName(text[1:end], text[end + 1:])
        else:
            qname = QName("", text)
        if len(CLARK_NAMES) >= MAX_NAMES:
            CLARK_NAMES.clear()
        CLARK_NAMES[text] = qname
        return qname

    def clark(self) -> str:
        """Render in Clark notation (``{ns}local`` / bare local)."""
        namespace, local = self
        if namespace:
            return "{" + namespace + "}" + local
        return local

    __str__ = clark

    def __repr__(self) -> str:
        return f"QName(namespace={self[0]!r}, local={self[1]!r})"
