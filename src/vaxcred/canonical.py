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
exact bytes they came from (``DecodedMap.raw``, a view).
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


def _varint(value: int) -> bytes:
    """Unsigned LEB128, always minimal length."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _take_varint(data: bytes, offset: int):
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


def _encode_into(out: bytearray, value) -> None:
    # bool before int: bool is an int subclass
    if isinstance(value, bool):
        out.append(_TAG_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        if not 0 <= value <= _U64_MAX:
            raise CanonicalError(f"integer out of unsigned 64-bit range: {value}")
        out.append(_TAG_UINT)
        out += _varint(value)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out += _varint(len(value))
        out += value
    elif isinstance(value, str):
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CanonicalError("text is not encodable as UTF-8") from exc
        out.append(_TAG_TEXT)
        out += _varint(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _varint(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise CanonicalError(f"map keys must be text, got {type(key).__name__}")
            items.append((key.encode("utf-8"), item))
        items.sort(key=lambda kv: kv[0])
        for i in range(1, len(items)):
            if items[i][0] == items[i - 1][0]:
                raise CanonicalError(f"duplicate map key: {items[i][0]!r}")
        out.append(_TAG_MAP)
        out += _varint(len(items))
        for key_bytes, item in items:
            out.append(_TAG_TEXT)
            out += _varint(len(key_bytes))
            out += key_bytes
            _encode_into(out, item)
    elif isinstance(value, Encoded):
        out += value.data
    else:
        raise CanonicalError(f"unencodable type: {type(value).__name__}")


class Wire:
    """Mixin for objects with ``to_wire``/``from_wire``: their canonical
    bytes, and the strict parse of those bytes."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        return encode(self.to_wire())

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls.from_wire(decode(data))


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
    if offset >= len(data):
        raise CanonicalError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_UINT:
        return _take_varint(data, offset)
    if tag == _TAG_BOOL:
        if offset >= len(data):
            raise CanonicalError("truncated bool")
        byte = data[offset]
        if byte not in (0, 1):
            raise CanonicalError(f"non-canonical bool byte {byte}")
        return bool(byte), offset + 1
    if tag == _TAG_BYTES:
        raw, offset = _take_sized(data, offset)
        return raw, offset
    if tag == _TAG_TEXT:
        return _take_text(data, offset)
    if tag == _TAG_LIST:
        count, offset = _take_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_at(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_MAP:
        start = offset - 1
        count, offset = _take_varint(data, offset)
        result = DecodedMap()
        prev_key: bytes | None = None
        for _ in range(count):
            if offset >= len(data) or data[offset] != _TAG_TEXT:
                raise CanonicalError("map key must be text")
            key, offset = _take_text(data, offset + 1)
            key_bytes = key.encode("utf-8")
            if prev_key is not None and key_bytes <= prev_key:
                raise CanonicalError("map keys not strictly byte-sorted")
            prev_key = key_bytes
            value, offset = _decode_at(data, offset, depth + 1)
            result[key] = value
        result.raw = memoryview(data)[start:offset]
        return result, offset
    raise CanonicalError(f"unknown type tag 0x{tag:02x}")


def _take_sized(data: bytes, offset: int):
    size, offset = _take_varint(data, offset)
    if offset + size > len(data):
        raise CanonicalError("truncated payload")
    return data[offset : offset + size], offset + size


def _take_text(data: bytes, offset: int):
    raw, offset = _take_sized(data, offset)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CanonicalError("invalid UTF-8 in text") from exc
    if text.encode("utf-8") != raw:
        raise CanonicalError("non-canonical UTF-8")
    return text, offset
