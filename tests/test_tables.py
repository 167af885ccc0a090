"""Every declared wire table against the generic codec, its reference.

Each table is fed the golden vectors, every single-byte mutation of them,
their decoded values with a node replaced, dropped or added, and objects
built by hypothesis. Three things must hold:

- the table reader accepts exactly the bytes that ``canonical.decode``
  accepts and whose value has the table's shape, read here by a second,
  plain reader of the decoded value (``_shaped``), and both give equal
  objects; every refusal is a ``VaxError``;
- accepted bytes are written back as themselves;
- the writer's bytes equal ``canonical.encode`` of the map the table
  describes (``_wire``).
"""

import datetime
import json
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcred import canonical, groupverify, service, vaccination, wallet
from vaxcred.canonical import _BOOL, _BYTES, _LIST, _MAP, _SIGNED, _TEXT, _TUPLE, _UINT
from vaxcred.coupons import Coupon, CouponPayload
from vaxcred.credentials import (
    BINDING,
    AppBinding,
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    Passkey,
    PasskeyHash,
    Status,
    StatusPayload,
    TreeRoot,
    VaccinationLevel,
)
from vaxcred.crypto import PkCiphertext, VerifyingKey
from vaxcred.errors import CanonicalError, VaxError
from vaxcred.groupverify import VenueAdvertisement
from vaxcred.merkle import DisclosureProof
from vaxcred.wallet import Presentation, PresentationKind

GOLDEN = {name: bytes.fromhex(value) for name, value in json.loads(
    pathlib.Path(__file__).with_name("golden_wire.json").read_text()).items()
    if name not in ("coupon_url", "cert_digest")}
CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# -- the reference: a plain reading of decoded values, and the map to encode ----


def _shaped(kind, value):
    """What ``kind`` reads from a decoded value; CanonicalError when the
    value has not its shape."""
    code = kind.code
    if code in (_MAP, _SIGNED):
        table = kind if code == _MAP else kind.inner
        keys = {f.key for f in table.fields}
        required = {f.key for f in table.fields if not f.optional}
        if type(value) is not dict or not required <= value.keys() <= keys:
            raise CanonicalError(f"not a {table.what}")
        args = {f.attr or f.key: _shaped(f.kind, value[f.key]) if f.key in value else None
                for f in table.fields}
        return tuple(args.values()) if table.build is None else table.build(**args)
    if code in (_LIST, _TUPLE):
        if type(value) is not list or code == _TUPLE and len(value) != len(kind.inner):
            raise CanonicalError("not a list of the kind")
        kinds = kind.inner if code == _TUPLE else [kind.inner] * len(value)
        return tuple(_shaped(inner, item) for inner, item in zip(kinds, value))
    if type(value) is not {_UINT: int, _BYTES: bytes, _TEXT: str, _BOOL: bool}[code]:
        raise CanonicalError("a scalar of the wrong type")
    if code == _BYTES and kind.size not in (None, len(value)):
        raise CanonicalError("bytes of another length")
    if kind.enum is None:
        return value
    try:
        return kind.enum(value)
    except ValueError:
        raise CanonicalError("no such member") from None


def _wire(kind, value):
    """The map, list or scalar ``canonical.encode`` is to turn into the
    bytes the writer gives for ``value``."""
    code = kind.code
    if code in (_MAP, _SIGNED):
        table = kind if code == _MAP else kind.inner
        values = value if table.build is None else [
            getattr(value, f.attr or f.key, None) for f in table.fields]
        return {f.key: _wire(f.kind, item)
                for f, item in zip(table.fields, values) if item is not None}
    if code in (_LIST, _TUPLE):
        kinds = kind.inner if code == _TUPLE else [kind.inner] * len(value)
        return [_wire(inner, item) for inner, item in zip(kinds, value)]
    return value if kind.enum is None else value.value


def _agree(table, data: bytes) -> None:
    """The table reader and the reference read ``data`` alike."""
    try:
        got = table.read(data)
    except VaxError as exc:
        got = exc
    try:
        want = _shaped(table, canonical.decode(data))
    except VaxError as exc:
        want = exc
    if isinstance(got, VaxError) or isinstance(want, VaxError):
        assert isinstance(got, VaxError) and isinstance(want, VaxError), (data.hex(), got, want)
    else:
        assert got == want
        assert table.write(got) == data


# -- the tables, their seeds and their objects -------------------------------------


def _part(name: str, *path) -> bytes:
    value = canonical.decode(GOLDEN[name])
    for key in path:
        value = value[key]
    return canonical.encode(value)


_ADV = VenueAdvertisement.from_bytes(GOLDEN["advertisement"])
_BADGE, _STATUS = Badge.from_bytes(GOLDEN["badge_paper_dose1"]), Status.from_bytes(
    GOLDEN["status_paper_dose1"])
_PASSKEY, _PROOF = Passkey.from_bytes(GOLDEN["passkey"]), DisclosureProof.from_bytes(
    GOLDEN["disclosure_proof"])
_BOX = PkCiphertext(bytes(range(32)), bytes(12), b"boxed challenge")
_INFO, _, _PAYLOAD = service._REQUEST.read(GOLDEN["request_frame"])

SEEDS = {  # table -> bytes it reads
    Coupon.TABLE: [GOLDEN["coupon"]],
    CouponPayload.TABLE: [_part("coupon", "payload")],
    Badge.TABLE: [GOLDEN[n] for n in GOLDEN if n.startswith("badge")],
    BadgeInfo.TABLE: [_part("badge_app_dose2", "info"), _part("badge_paper_dose1", "info")],
    DoseInfo.TABLE: [_part("badge_app_dose2", "info", "doses", 1)],
    BINDING: [_part(n, body, "binding") for n, body in (
        ("badge_app_dose1", "info"), ("badge_paper_dose1", "info"),
        ("status_app_dose1", "payload"), ("status_paper_dose1", "payload"))],
    Status.TABLE: [GOLDEN[n] for n in GOLDEN if n.startswith("status")],
    StatusPayload.TABLE: [_part("status_app_dose2", "payload")],
    Passkey.TABLE: [GOLDEN["passkey"]],
    DisclosureProof.TABLE: [GOLDEN["disclosure_proof"]],
    VerifyingKey.TABLE: [_part("advertisement", "channel")],
    VenueAdvertisement.TABLE: [GOLDEN["advertisement"]],
    PkCiphertext.TABLE: [_BOX.to_bytes()],
    Presentation.TABLE: [
        Presentation(kind=PresentationKind.STATUS_WITH_PASSKEY, status=_STATUS,
                     passkey=_PASSKEY).to_bytes(),
        Presentation(kind=PresentationKind.BADGE_ONLY, badge=_BADGE).to_bytes(),
        Presentation(kind=PresentationKind.STATUS_WITH_DISCLOSURE, proof=_PROOF,
                     status=Status.from_bytes(GOLDEN["status_app_dose1"])).to_bytes(),
    ],
    service._REQUEST: [GOLDEN["request_frame"]],
    service._RESPONSE: [GOLDEN["response_frame"],
                        service._RESPONSE.write(("already-used", False, None, None))],
    vaccination._REQUEST_BODY: [vaccination.signing_request(_INFO.to_bytes(), _PAYLOAD.to_bytes())[0]],
    groupverify._CERT: [groupverify._CERT.write((_ADV.channel_key, _ADV.venue_id))],
    groupverify._HELLO: [groupverify._HELLO.write((bytes(range(32)), _ADV.venue_id))],
    groupverify._CHALLENGE: [groupverify._CHALLENGE.write((_BOX,))],
    groupverify._CHALLENGE_BODY: [groupverify._CHALLENGE_BODY.write(("ABCDEF", 27_000_000))],
    wallet._WALLET_BODY: [wallet._WALLET_BODY.write(
        (_BADGE, _BADGE.info.coupon, None, None, _PASSKEY, _STATUS, "paper"))],
}
TABLES = {table.what: table for table in SEEDS}
assert len(TABLES) == len(SEEDS)

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
LABEL = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
SIG = st.binary(min_size=64, max_size=64)
DIGEST = st.binary(min_size=32, max_size=32)
SALT = st.binary(min_size=16, max_size=16)
DATE = st.dates(datetime.date(2000, 1, 1), datetime.date(2099, 12, 31))
KEYS = st.builds(VerifyingKey, st.binary(min_size=64, max_size=64))
PAYLOADS = st.builds(CouponPayload, st.integers(0, 2**64 - 1),
                     st.from_regex(r"[0-9]{5}", fullmatch=True), LABEL)
COUPONS = st.builds(Coupon, PAYLOADS, SIG)
DIGEST_BINDINGS = st.one_of(*(st.builds(cls, DIGEST) for cls in (Commitment, TreeRoot,
                                                                   PasskeyHash)))
APP_BINDINGS = st.builds(AppBinding, KEYS, DIGEST)


@st.composite
def badge_infos(draw):
    first = draw(DATE)
    dates = [first, first + datetime.timedelta(days=draw(st.integers(0, 60)))]
    doses = tuple(DoseInfo(draw(LABEL), draw(LABEL), day.isoformat(), number, draw(LABEL))
                  for number, day in enumerate(dates[:draw(st.integers(1, 2))], 1))
    binding = draw(st.builds(Commitment, DIGEST) | st.builds(TreeRoot, DIGEST))
    return BadgeInfo(doses, draw(COUPONS), binding)


@st.composite
def status_payloads(draw):
    level = VaccinationLevel(draw(st.integers(0, 2)))
    date = None if level is VaccinationLevel.NOT_VACCINATED else draw(
        st.none() | DATE.map(datetime.date.isoformat))
    return StatusPayload(level, draw(st.builds(PasskeyHash, DIGEST) | APP_BINDINGS), date)


BADGES = st.builds(Badge, badge_infos(), SIG)
STATUSES = st.builds(Status, status_payloads(), SIG)
PASSKEYS = st.builds(lambda pii, salt: Passkey(tuple(sorted(pii.items())), salt),
                     st.dictionaries(LABEL, TEXT, min_size=1, max_size=3), SALT)
LEAVES = st.lists(st.tuples(LABEL, TEXT, SALT), max_size=3, unique_by=lambda leaf: leaf[0]).map(
    tuple)
PROOFS = LEAVES.flatmap(lambda leaves: st.builds(
    DisclosureProof, st.just(leaves),
    st.tuples(*(st.lists(st.tuples(DIGEST, st.booleans()), max_size=3).map(tuple)
                for _ in leaves)), DIGEST))
BOXES = st.builds(PkCiphertext, DIGEST, st.binary(min_size=12, max_size=12),
                  st.binary(max_size=24))
kind = PresentationKind
OBJECTS = {  # table -> objects (or a frame's value tuples) to write
    Coupon.TABLE: COUPONS,
    CouponPayload.TABLE: PAYLOADS,
    Badge.TABLE: BADGES,
    BadgeInfo.TABLE: badge_infos(),
    DoseInfo.TABLE: badge_infos().map(lambda info: info.dose_history[-1]),
    BINDING: DIGEST_BINDINGS | APP_BINDINGS,
    Status.TABLE: STATUSES,
    StatusPayload.TABLE: status_payloads(),
    Passkey.TABLE: PASSKEYS,
    DisclosureProof.TABLE: PROOFS,
    VerifyingKey.TABLE: KEYS,
    VenueAdvertisement.TABLE: st.builds(VenueAdvertisement, TEXT, KEYS, st.binary(max_size=8)),
    PkCiphertext.TABLE: BOXES,
    Presentation.TABLE: st.one_of(
        st.builds(Presentation, st.just(kind.BADGE_ONLY), badge=BADGES),
        st.builds(Presentation, st.just(kind.STATUS_ONLY), status=STATUSES),
        st.builds(Presentation, st.just(kind.STATUS_WITH_PASSKEY), status=STATUSES,
                  passkey=PASSKEYS),
        st.builds(Presentation, st.just(kind.STATUS_WITH_DISCLOSURE), status=STATUSES,
                  proof=PROOFS)),
    service._REQUEST: st.tuples(badge_infos(), DIGEST, status_payloads()),
    service._RESPONSE: st.tuples(st.none(), st.just(True), SIG, SIG)
    | st.tuples(LABEL, st.just(False), st.none(), st.none()),
    vaccination._REQUEST_BODY: st.tuples(badge_infos(), status_payloads()),
    groupverify._CERT: st.tuples(KEYS, TEXT),
    groupverify._HELLO: st.tuples(DIGEST, TEXT),
    groupverify._CHALLENGE: st.tuples(BOXES),
    groupverify._CHALLENGE_BODY: st.tuples(TEXT, st.integers(0, 2**64 - 1)),
    wallet._WALLET_BODY: st.tuples(st.none() | BADGES, st.none() | COUPONS,
                                   st.none() | st.binary(max_size=8), st.none() | LEAVES,
                                   st.none() | PASSKEYS, st.none() | STATUSES, TEXT),
}
assert OBJECTS.keys() == SEEDS.keys()


# -- the checks -------------------------------------------------------------------


@pytest.mark.parametrize("name", list(TABLES))
def test_golden_vectors_are_read_as_the_reference_reads_them(name):
    for seed in SEEDS[TABLES[name]]:
        _agree(TABLES[name], seed)
        assert TABLES[name].read(seed) is not None


def _byte_mutants(seed: bytes):
    for at in range(len(seed)):
        for byte in {seed[at] ^ 0x01, seed[at] ^ 0x80, 0x00, 0xFF} - {seed[at]}:
            yield seed[:at] + bytes((byte,)) + seed[at + 1:]
        yield seed[:at] + seed[at + 1:]
        yield seed[:at] + b"\x00" + seed[at:]


@pytest.mark.parametrize("name", list(TABLES))
def test_single_byte_mutants_are_read_as_the_reference_reads_them(name):
    for seed in SEEDS[TABLES[name]]:
        for data in _byte_mutants(seed):
            _agree(TABLES[name], data)


VALUES = st.recursive(
    st.one_of(st.integers(0, 2**64 - 1), st.booleans(), st.binary(max_size=70), TEXT),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(TEXT, kids, max_size=3),
    max_leaves=5)


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _changed(value, path, change):
    if not path:
        return change(value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _changed(value[path[0]], path[1:], change)
    return copy


@pytest.mark.parametrize("name", list(TABLES))
@CHECKS
@given(data=st.data())
def test_structural_mutants_are_read_as_the_reference_reads_them(name, data):
    """A decoded seed with one node replaced by a generated value, or a map
    with a key dropped or added, encoded again."""
    value = canonical.decode(data.draw(st.sampled_from(SEEDS[TABLES[name]])))
    path = data.draw(st.sampled_from(list(_paths(value))))
    new = data.draw(VALUES)
    op = data.draw(st.sampled_from(("replace", "drop", "add")))

    def change(node):
        if op == "drop" and isinstance(node, dict) and node:
            return {k: v for k, v in node.items() if k != data.draw(st.sampled_from(sorted(node)))}
        if op == "add" and isinstance(node, dict):
            return {**node, data.draw(TEXT): new}
        return new

    _agree(TABLES[name], canonical.encode(_changed(value, path, change)))


@pytest.mark.parametrize("name", list(TABLES))
@CHECKS
@given(data=st.data())
def test_built_objects_are_written_as_the_reference_encodes_them(name, data):
    table = TABLES[name]
    obj = data.draw(OBJECTS[table])
    written = table.write(obj)
    assert written == canonical.encode(_wire(table, obj))
    assert table.read(written) == obj
    _agree(table, written)


def test_a_map_reads_no_further_than_its_entry_count():
    """A nested map ends after its counted entries, even where the bytes
    after it are an entry of one of its own optional fields."""
    inner = canonical.Table("inner", canonical.Field("a", canonical.UINT),
                            canonical.Field("b", canonical.UINT, optional=True))
    outer = canonical.Table("outer", canonical.Field("a", inner),
                            canonical.Field("b", canonical.UINT))
    data = canonical.encode({"a": {"a": 1}, "b": 2})
    assert outer.read(data) == ((1, None), 2)
    _agree(outer, data)
    assert outer.write(((1, None), 2)) == data


@pytest.mark.parametrize("count", [2**28, 2**62])
def test_a_list_count_past_the_input_is_refused_before_any_item(count):
    """A list's item count is outside input: a count larger than the bytes
    left is refused as non-canonical at once, with nothing allocated for it."""
    head = b"\x03\x05doses"
    data = _part("badge_paper_dose1", "info").replace(
        head + canonical._head(5, 1), head + canonical._head(5, count))
    tracemalloc.start()
    try:
        with pytest.raises(CanonicalError):
            BadgeInfo.TABLE.read(data)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    _agree(BadgeInfo.TABLE, data)
