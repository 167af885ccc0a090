"""Codec tests: frozen byte vectors computed by hand from the format
definition (tag byte, then minimal LEB128 lengths/values), plus
property-based round trips and strict-decode rejections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcred import canonical
from vaxcred.errors import CanonicalError

# hand-assembled oracles: tag || varint || payload
FROZEN = [
    (0, "0100"),
    (1, "0101"),
    (127, "017f"),
    (128, "018001"),  # 128 -> 0x80 0x01
    (300, "01ac02"),  # 300 = 0b10_0101100 -> 0xAC 0x02
    (2**64 - 1, "01ffffffffffffffffff01"),
    (True, "0401"),
    (False, "0400"),
    (b"", "0200"),
    (b"\x00\xff", "020200ff"),
    ("", "0300"),
    ("hi", "03026869"),
    ("é", "0302c3a9"),
    ([], "0500"),
    ([1, "a"], "05020101030161"),
    ({}, "0600"),
    ({"b": 1, "a": 2}, "06020301610102030162 0101".replace(" ", "")),
    ({"k": [b"\x07", True]}, "0601 03016b 0502 020107 0401".replace(" ", "")),
]


@pytest.mark.parametrize("value,expected_hex", FROZEN)
def test_frozen_encodings(value, expected_hex):
    assert canonical.encode(value).hex() == expected_hex
    assert canonical.decode(bytes.fromhex(expected_hex)) == value


def test_map_keys_sorted_by_bytes_not_locale():
    # "Z" (0x5a) sorts before "a" (0x61); insertion order is irrelevant
    assert canonical.encode({"a": 1, "Z": 2}) == canonical.encode({"Z": 2, "a": 1})
    encoded = canonical.encode({"a": 1, "Z": 2})
    assert encoded.index(b"Z") < encoded.index(b"a")


def test_varint_minimality_enforced():
    # 0 padded to two bytes: 0x80 0x00
    with pytest.raises(CanonicalError):
        canonical.decode(bytes.fromhex("018000"))
    # 1 padded to two bytes: 0x81 0x00
    with pytest.raises(CanonicalError):
        canonical.decode(bytes.fromhex("018100"))
    # length fields too
    with pytest.raises(CanonicalError):
        canonical.decode(bytes.fromhex("02800061"))


def test_varint_overflow_rejected():
    with pytest.raises(CanonicalError):
        canonical.encode(2**64)
    with pytest.raises(CanonicalError):
        canonical.encode(-1)
    # 2^64 on the wire: ten varint bytes
    with pytest.raises(CanonicalError):
        canonical.decode(bytes.fromhex("0180808080808080808002"))


@pytest.mark.parametrize(
    "blob",
    [
        "",  # nothing
        "07",  # unknown tag
        "01",  # truncated varint
        "0180",  # varint continuation with no next byte
        "0203ab",  # declared 3 payload bytes, 1 present
        "0402",  # bool byte out of range
        "0301ff",  # invalid UTF-8
        "0302c0af",  # overlong UTF-8 for '/'
        "03026869ff",  # trailing byte
        "0502 0100",  # list declares 2, carries 1
        "0601 0100 0101",  # map key is an int
        "0602 030161 0101 030161 0102",  # duplicate keys
        "0602 030162 0101 030161 0102",  # unsorted keys
    ],
)
def test_strict_decode_rejections(blob):
    with pytest.raises(CanonicalError):
        canonical.decode(bytes.fromhex(blob.replace(" ", "")))


def test_depth_cap():
    nested: object = 1
    for _ in range(32):
        nested = [nested]
    encoded = canonical.encode(nested)
    assert canonical.decode(encoded) == nested
    over = b"\x05\x01" + encoded  # one more layer of nesting on the wire
    with pytest.raises(CanonicalError):
        canonical.decode(over)


def test_none_and_float_unencodable():
    with pytest.raises(CanonicalError):
        canonical.encode(None)
    with pytest.raises(CanonicalError):
        canonical.encode(1.5)
    with pytest.raises(CanonicalError):
        canonical.encode({1: "a"})
    with pytest.raises(CanonicalError):  # keys that do not even sort
        canonical.encode({1: "a", "b": 2})
    with pytest.raises(CanonicalError):  # a lone surrogate has no UTF-8
        canonical.encode({"\ud800": 1})


# bytes, texts and keys run on both sides of 127 encoded bytes, where a
# length stops fitting in one varint byte
keys = st.text(max_size=8) | st.text(min_size=100, max_size=140)
values = st.deferred(
    lambda: st.one_of(
        st.booleans(),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.binary(max_size=64) | st.binary(min_size=120, max_size=200),
        st.text(max_size=32) | st.text(min_size=100, max_size=160),
        st.lists(values, max_size=5),
        st.dictionaries(keys, values, max_size=5),
    )
)


@given(values)
@settings(max_examples=300, deadline=None)
def test_round_trip_property(value):
    encoded = canonical.encode(value)
    decoded = canonical.decode(encoded)
    assert decoded == value
    # canonical: re-encoding the decode is bit-exact
    assert canonical.encode(decoded) == encoded


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_injective(a, b):
    if canonical.encode(a) == canonical.encode(b):
        assert a == b


@given(values, st.data())
@settings(max_examples=200, deadline=None)
def test_mutation_never_decodes_to_original(value, data):
    encoded = bytearray(canonical.encode(value))
    pos = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    encoded[pos] ^= 1 << bit
    try:
        decoded = canonical.decode(bytes(encoded))
    except CanonicalError:
        return
    # a successful decode of different bytes must yield a different value:
    # every value has exactly one accepted encoding
    assert decoded != value


# -- the one shape check of a map read from outside -------------------------------


def test_fields_returns_the_values_in_the_order_asked():
    obj = {"b": 2, "a": 1, "c": 3}
    assert canonical.fields(obj, ("c", "a", "b"), "thing") == [3, 1, 2]
    assert canonical.fields(obj, ("a",), "thing", ("d", "c", "b")) == [1, None, 3, 2]


def test_fields_decides_presence_by_the_key():
    """A JSON null is present: it fills a required key, and an optional
    key holding it still counts against the map's size."""
    assert canonical.fields({"a": None}, ("a",), "thing") == [None]
    assert canonical.fields({"a": 1, "b": None}, ("a",), "thing", ("b",)) == [1, None]
    with pytest.raises(CanonicalError, match="malformed thing"):
        canonical.fields({"a": 1, "b": None, "z": None}, ("a",), "thing", ("b",))


@pytest.mark.parametrize("obj", [None, 7, "ab", [["a", 1]], b"a", {}, {"a": 1},
                                 {"a": 1, "b": 2, "z": 3}, {"b": 2}, {"a": 1, "z": 3}])
def test_fields_refuses_every_other_shape(obj):
    with pytest.raises(CanonicalError, match="^malformed thing$"):
        canonical.fields(obj, ("a", "b"), "thing")


@given(st.sets(st.sampled_from("abcdefgh")), st.sets(st.sampled_from("abcdefgh")),
       st.sets(st.sampled_from("abcdefghij")))
@settings(max_examples=300, deadline=None)
def test_fields_accepts_exactly_the_key_sets_between_required_and_optional(keys, optional,
                                                                          present):
    optional = optional - keys
    obj = {key: key.upper() for key in present}
    if keys <= present <= keys | optional:
        assert canonical.fields(obj, tuple(keys), "x", tuple(optional)) == [
            obj.get(key) for key in (*keys, *optional)]
    else:
        with pytest.raises(CanonicalError):
            canonical.fields(obj, tuple(keys), "x", tuple(optional))
