"""Canonical binary encoding for every signed payload.

Deterministic map encoding: byte-sorted keys, minimal-length varints,
explicit type tags. Signatures always cover these bytes, and the decoder
is strict (exact consumption, enforced key order, minimal varints,
canonical UTF-8) so that a decode/re-encode round trip is bit-exact and
every byte of an encoding is load-bearing. The varints keep printable
artifacts small enough for QR codes and short links.

Supported values: int (unsigned 64-bit), bool, bytes, str, list, dict with
str keys, and ``Encoded`` bytes that are already canonical. None is not
encodable; optional fields are simply omitted. Decoded maps remember the
exact bytes they came from (``DecodedMap.raw``, a view). Every reader of a
map from outside, decoded or JSON, checks its key set with ``fields``.
"""

from __future__ import annotations

from .errors import CanonicalError

_TAG_UINT = 0x01
_TAG_BYTES = 0x02
_TAG_TEXT = 0x03
_TAG_BOOL = 0x04
_TAG_LIST = 0x05
_TAG_MAP = 0x06

_U64_MAX = 2**64 - 1
_MAX_DEPTH = 32


class Encoded:
    """A value already in canonical form: ``encode`` copies its bytes
    verbatim. Signed bodies travel inside larger encodings this way, as
    the exact bytes that were signed, without being encoded again."""

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


class DecodedMap(dict):
    """A map returned by ``decode``. ``raw`` is a view of the exact input
    bytes it was decoded from, so a signed body is checked over the bytes
    that arrived rather than a re-encoding of them. Only a body that is
    kept copies its view."""

    __slots__ = ("raw",)


def _head(tag: int, size: int) -> bytes:
    """A tag and its minimal unsigned LEB128 varint; from a table when the
    varint is one byte."""
    if size < 0x80:
        return _HEADS[tag][size]
    out = bytearray((tag,))
    while size > 0x7F:
        out.append(size & 0x7F | 0x80)
        size >>= 7
    out.append(size)
    return bytes(out)


_HEADS = {tag: [bytes((tag, size)) for size in range(0x80)]
          for tag in (_TAG_UINT, _TAG_BYTES, _TAG_TEXT, _TAG_LIST, _TAG_MAP)}


def _take_varint(data: bytes, offset: int):
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
    value = 0
    shift = 0
    start = offset
    while True:
        if offset >= len(data):
            raise CanonicalError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
        if shift > 63:
            raise CanonicalError("varint exceeds 64 bits")
    if value > _U64_MAX:
        raise CanonicalError("varint exceeds 64 bits")
    if offset - start > 1 and data[offset - 1] == 0:
        raise CanonicalError("non-minimal varint")
    return value, offset


def encode(value) -> bytes:
    """Encode a value to canonical bytes. Raises CanonicalError."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


# bool before int: bool is an int subclass
_KINDS = (bool, int, bytes, str, Encoded, list, tuple, dict)
_EXACT = frozenset(_KINDS)


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CanonicalError("text is not encodable as UTF-8") from exc


def _encode_into(out: bytearray, value) -> None:
    kind = type(value)
    if kind not in _EXACT:  # a subclass, such as an IntEnum, encodes as its base
        kind = next((base for base in _KINDS if isinstance(value, base)), None)
        if kind is None:
            raise CanonicalError(f"unencodable type: {type(value).__name__}")
    if kind is str:
        raw = _utf8(value)
        out += _head(_TAG_TEXT, len(raw))
        out += raw
    elif kind is bytes:
        out += _head(_TAG_BYTES, len(value))
        out += value
    elif kind is Encoded:
        out += value.data
    elif kind is bool:
        out.append(_TAG_BOOL)
        out.append(1 if value else 0)
    elif kind is int:
        if not 0 <= value <= _U64_MAX:
            raise CanonicalError(f"integer out of unsigned 64-bit range: {value}")
        out += _head(_TAG_UINT, value)
    elif kind is dict:
        # code-point order is UTF-8 byte order, so str keys sort as their bytes
        try:
            keys = sorted(value)
        except TypeError as exc:
            raise CanonicalError("map keys must be text") from exc
        out += _head(_TAG_MAP, len(keys))
        for key in keys:
            if not isinstance(key, str):
                raise CanonicalError(f"map keys must be text, got {type(key).__name__}")
            raw = _utf8(key)
            out += _head(_TAG_TEXT, len(raw))
            out += raw
            _encode_into(out, value[key])
    else:  # list or tuple
        out += _head(_TAG_LIST, len(value))
        for item in value:
            _encode_into(out, item)


class Wire:
    """Mixin for objects with ``to_wire``/``from_wire``: their canonical
    bytes, and the strict parse of those bytes."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        return encode(self.to_wire())

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls.from_wire(decode(data))


def fields(obj, keys: tuple, what: str, optional: tuple = ()) -> list:
    """The values of a map read from outside under ``keys``, then under
    ``optional`` (None where absent; a JSON null is present). CanonicalError
    "malformed <what>" unless ``obj`` is a map with every key in ``keys`` and
    none outside ``keys`` and ``optional``. Callers check the values' types."""
    if isinstance(obj, dict):
        try:
            values = [obj[key] for key in keys]
        except KeyError:
            pass
        else:
            size = len(keys)
            for key in optional:
                size += key in obj
                values.append(obj.get(key))
            if len(obj) == size:
                return values
    raise CanonicalError(f"malformed {what}")


def tuples(items) -> tuple:
    """A decoded list of lists as a tuple of tuples, the shape that frozen
    objects hold; their constructors check the items."""
    if not isinstance(items, list) or not all(isinstance(item, list) for item in items):
        raise CanonicalError("expected a list of lists")
    return tuple(tuple(item) for item in items)


def decode(data: bytes):
    """Strictly decode canonical bytes; rejects trailing bytes and any
    non-canonical form (unsorted keys, bad tags, padded varints,
    invalid UTF-8)."""
    if not isinstance(data, (bytes, bytearray)):
        raise CanonicalError("decode expects bytes")
    value, offset = _decode_at(bytes(data), 0, 0)
    if offset != len(data):
        raise CanonicalError(f"trailing bytes after value ({len(data) - offset})")
    return value


def _decode_at(data: bytes, offset: int, depth: int):
    if depth > _MAX_DEPTH:
        raise CanonicalError("nesting too deep")
    end = len(data)
    if offset >= end:
        raise CanonicalError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_TEXT or tag == _TAG_BYTES:
        if offset < end and data[offset] < 0x80:
            stop = offset + 1 + data[offset]
            offset += 1
        else:
            size, offset = _take_varint(data, offset)
            stop = offset + size
        if stop > end:
            raise CanonicalError("truncated payload")
        if tag == _TAG_BYTES:
            return data[offset:stop], stop
        return _text(data[offset:stop]), stop
    if tag == _TAG_UINT:
        return _take_varint(data, offset)
    if tag == _TAG_MAP:
        start = offset - 1
        count, offset = _take_varint(data, offset)
        result = DecodedMap()
        prev_key: bytes | None = None
        for _ in range(count):
            if offset + 1 < end and data[offset] == _TAG_TEXT and data[offset + 1] < 0x80:
                stop = offset + 2 + data[offset + 1]
                offset += 2
            else:
                if offset >= end or data[offset] != _TAG_TEXT:
                    raise CanonicalError("map key must be text")
                size, offset = _take_varint(data, offset + 1)
                stop = offset + size
            if stop > end:
                raise CanonicalError("truncated payload")
            key_bytes = data[offset:stop]
            if prev_key is not None and key_bytes <= prev_key:
                raise CanonicalError("map keys not strictly byte-sorted")
            prev_key = key_bytes
            value, offset = _decode_at(data, stop, depth + 1)
            result[_text(key_bytes)] = value
        result.raw = memoryview(data)[start:offset]
        return result, offset
    if tag == _TAG_LIST:
        count, offset = _take_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_BOOL:
        if offset >= end:
            raise CanonicalError("truncated bool")
        byte = data[offset]
        if byte not in (0, 1):
            raise CanonicalError(f"non-canonical bool byte {byte}")
        return bool(byte), offset + 1
    raise CanonicalError(f"unknown type tag 0x{tag:02x}")


def _text(raw: bytes) -> str:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CanonicalError("invalid UTF-8 in text") from exc
    if not text.isascii() and text.encode("utf-8") != raw:
        raise CanonicalError("non-canonical UTF-8")
    return text
