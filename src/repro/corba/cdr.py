"""CDR-style binary marshalling.

A compact tagged big-endian encoding of the CORBA basic types the WebFlow
interface uses: null, boolean, long, double, string, sequence, and struct
(string-keyed).  Not the real CDR alignment rules — but a genuine binary
format with the property the ORB needs: ``unmarshal(marshal(x)) == x``.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.xmlutil.qname import QName

_TAG_NULL = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_LONG = 3
_TAG_DOUBLE = 4
_TAG_STRING = 5
_TAG_SEQUENCE = 6
_TAG_STRUCT = 7


class CdrError(ValueError):
    """Raised on unmarshallable bytes or unsupported values."""


def marshal(value: Any) -> bytes:
    """Encode a value into CDR bytes."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def _encode(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif isinstance(value, bool):
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_LONG)
        out.extend(struct.pack(">q", value))
    elif isinstance(value, float):
        out.append(_TAG_DOUBLE)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_TAG_STRING)
        out.extend(struct.pack(">I", len(data)))
        out.extend(data)
    # a QName is a tuple, but a name rather than a sequence: it is refused
    elif isinstance(value, (list, tuple)) and not isinstance(value, QName):
        out.append(_TAG_SEQUENCE)
        out.extend(struct.pack(">I", len(value)))
        for item in value:
            _encode(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_STRUCT)
        out.extend(struct.pack(">I", len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise CdrError(f"struct keys must be strings, got {key!r}")
            data = key.encode("utf-8")
            out.extend(struct.pack(">I", len(data)))
            out.extend(data)
            _encode(out, item)
    else:
        raise CdrError(f"cannot marshal {type(value).__name__}")


def unmarshal(data: bytes) -> Any:
    """Decode CDR bytes back into a value."""
    value, offset = _decode(data, 0)
    if offset != len(data):
        raise CdrError(f"{len(data) - offset} trailing bytes after value")
    return value


def _decode(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise CdrError("truncated CDR stream")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_LONG:
        _need(data, offset, 8)
        return struct.unpack_from(">q", data, offset)[0], offset + 8
    if tag == _TAG_DOUBLE:
        _need(data, offset, 8)
        return struct.unpack_from(">d", data, offset)[0], offset + 8
    if tag == _TAG_STRING:
        _need(data, offset, 4)
        length = struct.unpack_from(">I", data, offset)[0]
        offset += 4
        _need(data, offset, length)
        return data[offset:offset + length].decode("utf-8"), offset + length
    if tag == _TAG_SEQUENCE:
        _need(data, offset, 4)
        count = struct.unpack_from(">I", data, offset)[0]
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_STRUCT:
        _need(data, offset, 4)
        count = struct.unpack_from(">I", data, offset)[0]
        offset += 4
        record: dict[str, Any] = {}
        for _ in range(count):
            _need(data, offset, 4)
            key_len = struct.unpack_from(">I", data, offset)[0]
            offset += 4
            _need(data, offset, key_len)
            key = data[offset:offset + key_len].decode("utf-8")
            offset += key_len
            record[key], offset = _decode(data, offset)
        return record, offset
    raise CdrError(f"unknown CDR tag {tag}")


def _need(data: bytes, offset: int, count: int) -> None:
    if offset + count > len(data):
        raise CdrError("truncated CDR stream")
