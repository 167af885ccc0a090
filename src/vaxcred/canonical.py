"""Canonical binary encoding for every signed payload.

Deterministic map encoding: byte-sorted keys, minimal-length varints,
explicit type tags. Signatures always cover these bytes, and the decoder
is strict (exact consumption, enforced key order, minimal varints,
canonical UTF-8) so that a decode/re-encode round trip is bit-exact and
every byte of an encoding is load-bearing. The varints keep printable
artifacts small enough for QR codes and short links.

Supported values: int (unsigned 64-bit), bool, bytes, str, list and dict
with str keys. None is not encodable; optional fields are simply omitted.

Each wire type declares its map once, as a ``Table`` of ``Field``s beside
the type: the key, the kind of value (an unsigned int, bytes of any or a
fixed length, text, a bool, a nested table, a list or tuple of kinds, or
a signed body) and whether the field is optional. One reader and one
writer work from the table. The reader walks the input once: it matches
each expected key as its encoded bytes, in table order, reads the value
in place under the same strictness as ``decode``, keeps a signed body's
exact input bytes, and builds the object once. It accepts exactly the
encodings ``decode`` accepts whose value has the table's shape. The
writer joins the encoded keys and values and refuses a value not of its
field's kind. ``encode`` and ``decode`` stay as the generic reference;
JSON maps read from files are checked with ``fields``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CanonicalError

_TAG_UINT = 0x01
_TAG_BYTES = 0x02
_TAG_TEXT = 0x03
_TAG_BOOL = 0x04
_TAG_LIST = 0x05
_TAG_MAP = 0x06

_U64_MAX = 2**64 - 1
_MAX_DEPTH = 32


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
_KINDS = (bool, int, bytes, str, list, tuple, dict)
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


# -- declared tables --------------------------------------------------------

_UINT, _BYTES, _TEXT, _BOOL, _LIST, _TUPLE, _MAP, _SIGNED = range(8)
_TAG_OF = (_TAG_UINT, _TAG_BYTES, _TAG_TEXT, _TAG_BOOL, _TAG_LIST, _TAG_LIST, _TAG_MAP, _TAG_MAP)


class Kind:
    """What a field holds: an unsigned 64-bit int, bytes (of length
    ``size`` when it is set), text, a bool, a list of ``inner`` items, a
    tuple of the kinds in ``inner``, or a signed body of table ``inner``,
    whose bytes the reader keeps. ``enum`` turns a scalar into its member
    on reading, and back by ``.value`` on writing. ``take`` reads one
    and ``put`` writes one."""

    __slots__ = ("code", "tag", "size", "inner", "enum", "take", "put")

    def __init__(self, code: int, size=None, inner=None, enum=None):
        self.code, self.tag = code, bytes((_TAG_OF[code],))
        self.size, self.inner, self.enum = size, inner, enum
        self.take, self.put = _taker(self), _putter(self)

    def write(self, value) -> bytes:
        out = []
        self.put(value, out)
        return b"".join(out)


def _taker(kind: Kind):
    """The reader of a value of ``kind``: (data, pos) -> (value, end), with
    ``pos`` just past the value's type tag."""
    code, size, inner, enum = kind.code, kind.size, kind.inner, kind.enum
    if code == _UINT:
        take = _take_varint
    elif code == _BOOL:
        def take(data, pos):
            flag = data[pos:pos + 1]
            if flag != b"\x00" and flag != b"\x01":
                raise CanonicalError("non-canonical bool byte")
            return flag == b"\x01", pos + 1
    elif code == _BYTES or code == _TEXT:
        def take(data, pos):
            length, pos = _take_varint(data, pos)
            stop = pos + length
            if stop > len(data):
                raise CanonicalError("truncated payload")
            if code == _TEXT:
                return _text(data[pos:stop]), stop
            if size is not None and length != size:
                raise CanonicalError(f"bytes of length {length}, not {size}")
            return data[pos:stop], stop
    elif code == _SIGNED:
        def take(data, pos):
            body, end = inner.take(data, pos)
            return body._keep(data[pos - 1:end]), end
    else:  # a list of one kind, or a tuple of kinds
        def take(data, pos):
            count, pos = _take_varint(data, pos)
            if code == _TUPLE and count != len(inner):
                raise CanonicalError(f"expected a list of {len(inner)}")
            if count > len(data) - pos:  # each item takes a byte at least
                raise CanonicalError("truncated value")
            items = []
            for item in inner if code == _TUPLE else (inner,) * count:
                if not data.startswith(item.tag, pos):
                    raise CanonicalError("list item of the wrong type")
                value, pos = item.take(data, pos + 1)
                items.append(value)
            return tuple(items), pos
    if enum is None:
        return take

    def member(data, pos):
        value, pos = take(data, pos)
        try:
            return enum(value), pos
        except ValueError:
            raise CanonicalError(f"unknown {enum.__name__} {value!r}") from None
    return member


def _putter(kind: Kind):
    """The writer of a value of ``kind``: (value, out) appends its
    encoding to the list ``out``."""
    code, size, inner, enum = kind.code, kind.size, kind.inner, kind.enum
    if code == _UINT:
        def put(value, out):
            if type(value) is not int or not 0 <= value <= _U64_MAX:
                raise CanonicalError(f"not an unsigned 64-bit integer: {value!r}")
            out.append(_head(_TAG_UINT, value))
    elif code == _BOOL:
        def put(value, out):
            out.append(b"\x04\x01" if value else b"\x04\x00")
    elif code == _TEXT:
        def put(value, out):
            if type(value) is not str:
                raise CanonicalError(f"{type(value).__name__} where text is declared")
            value = _utf8(value)
            out += (_head(_TAG_TEXT, len(value)), value)
    elif code == _BYTES:
        def put(value, out):
            if type(value) is not bytes or size is not None and len(value) != size:
                raise CanonicalError(f"not {size or 'any'} bytes: {type(value).__name__}")
            out += (_head(_TAG_BYTES, len(value)), value)
    elif code == _SIGNED:  # a body, or bytes it was written to
        def put(value, out):
            out.append(value if type(value) is bytes else value.to_bytes())
    else:  # a list of one kind, or a tuple of kinds
        def put(value, out):
            if code == _TUPLE and len(value) != len(inner):
                raise CanonicalError(f"expected a tuple of {len(inner)}")
            out.append(_head(_TAG_LIST, len(value)))
            for item, part in zip(inner if code == _TUPLE else (inner,) * len(value), value):
                item.put(part, out)
    if enum is None:
        return put
    return lambda value, out: put(value.value, out)


UINT = Kind(_UINT)
BYTES = Kind(_BYTES)
TEXT = Kind(_TEXT)
BOOL = Kind(_BOOL)


def fixed(size: int) -> Kind:
    return Kind(_BYTES, size)


def enum_of(kind: Kind, enum) -> Kind:
    return Kind(kind.code, enum=enum)


def list_of(inner) -> Kind:
    return Kind(_LIST, inner=inner)


def tuple_of(*inner) -> Kind:
    return Kind(_TUPLE, inner=inner)


def signed(table: "Table") -> Kind:
    return Kind(_SIGNED, inner=table)


class Field(NamedTuple):
    key: str
    kind: object  # a Kind, or a Table for a nested map
    attr: str = ""  # the object's attribute, when it is not the key
    optional: bool = False


class Table:
    """One wire type's map. Declared in a class body, it builds that class
    from the values by attribute name (None for an absent optional field),
    and the writer reads the same attributes. Elsewhere it builds with
    ``build``, or, without one, is a frame, read as and written from the
    tuple of its values."""

    code, tag = _MAP, bytes((_TAG_MAP,))

    def __init__(self, what: str, *fields: Field, build=None):
        keys = [f.key.encode("utf-8") for f in fields]
        if keys != sorted(set(keys)):
            raise ValueError(f"{what}: fields must be declared in key byte order")
        self.what, self.fields, self.build = what, fields, build
        # the reader matches a key's encoding and its value's type tag; the
        # writer puts the key's encoding
        heads = [_head(_TAG_TEXT, len(k)) + k for k in keys]
        self.rows = tuple((head + f.kind.tag, len(head) + 1, f.kind.take, f.attr or f.key,
                           f.optional) for head, f in zip(heads, fields))
        self.cells = tuple((head, f.kind.put, f.attr or f.key, f.optional)
                           for head, f in zip(heads, fields))

    def __set_name__(self, owner, name):
        self.build = owner

    def read(self, data) -> object:
        """The object ``data`` encodes whole. CanonicalError unless it is
        a canonical encoding of a map with this table's shape."""
        if not isinstance(data, (bytes, bytearray)):
            raise CanonicalError("decode expects bytes")
        data = bytes(data)
        if not data.startswith(self.tag):
            raise CanonicalError(f"malformed {self.what}")
        obj, end = self.take(data, 1)
        if end != len(data):
            raise CanonicalError(f"trailing bytes after value ({len(data) - end})")
        return obj

    def take(self, data: bytes, pos: int):
        """(object, end) for the map whose entry count is at ``pos``. A key
        present with a value of the wrong type is no match: its entry is
        left unread, which refuses the map."""
        count, pos = _take_varint(data, pos)
        values = {}
        for head, size, take, attr, optional in self.rows:
            if count and data.startswith(head, pos):
                count -= 1
                values[attr], pos = take(data, pos + size)
            elif optional:
                values[attr] = None
            else:
                raise CanonicalError(f"malformed {self.what}")
        if count:
            raise CanonicalError(f"malformed {self.what}")
        if self.build is None:
            return tuple(values.values()), pos
        return self.build(**values), pos

    write = Kind.write

    def put(self, obj, out: list) -> None:
        at, count = len(out), 0
        out.append(b"")  # the map's head, once its entries are counted
        frame = self.build is None
        if frame and len(obj) != len(self.cells):
            raise CanonicalError(f"{self.what} of {len(self.cells)} values")
        for i, (key, put, attr, optional) in enumerate(self.cells):
            value = obj[i] if frame else getattr(obj, attr, None)
            if value is None:
                if not optional:
                    raise CanonicalError(f"{self.what} needs {attr}")
                continue
            count += 1
            out.append(key)
            put(value, out)
        out[at] = _head(_TAG_MAP, count)


class Wire:
    """Base of a type that declares its map as ``TABLE``: its canonical
    bytes, their strict reading, and the map ``encode`` writes alike."""

    __slots__ = ()

    def to_bytes(self) -> bytes:
        return self.TABLE.write(self)

    def to_wire(self) -> dict:
        return decode(self.to_bytes())

    @classmethod
    def from_bytes(cls, data):
        return cls.TABLE.read(data)


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
        count, offset = _take_varint(data, offset)
        result = {}
        prev_key: bytes | None = None
        for _ in range(count):
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
