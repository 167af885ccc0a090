"""Frozen wire bytes: every printable or transmitted artifact, pinned in hex.

Ed25519 signatures are deterministic and every key, salt and tree leaf
below comes from one seeded generator, so the whole flow produces fixed
bytes. A renamed map key, a reordered field or a changed encoding of any
artifact changes its hex here; round-trip tests cannot see that, because
they compare an object only with itself.

The expected values live in ``golden_wire.json``. They are the wire
format: change them only together with a deliberate format change.
"""

import json
import pathlib
import random

import pytest

from vaxcred import canonical
from vaxcred.coupons import Coupon, issue_coupon_batch
from vaxcred.credentials import (
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    Passkey,
    PasskeyHash,
    Status,
    StatusPayload,
    VaccinationLevel,
)
from vaxcred.crypto import generate_keypair
from vaxcred.groupverify import VenueAdvertisement, make_venue
from vaxcred.merkle import DisclosureProof, build_pii_tree, prove_disclosure
from vaxcred.qr import decode_qr, encode_qr, export_coupon_url, import_coupon_url
from vaxcred.registry import Registry
from vaxcred.service import encode_request, handle_request_bytes
from vaxcred.vaccination import BadgeIssuer, PharmacySession

GOLDEN = json.loads(
    (pathlib.Path(__file__).with_name("golden_wire.json")).read_text(encoding="utf-8")
)

PII = (("dob", "1970-01-01"), ("name", "Ada Example"), ("zip", "02139-0001"))


def _dose(number: int) -> DoseInfo:
    return DoseInfo(
        product="VX-ALPHA",
        lot=f"L-{number}",
        date="2021-03-01" if number == 1 else "2021-03-22",
        dose_number=number,
        site_id="S-01",
    )


def _build():
    rng = random.Random(0x601D)
    handle, vk = generate_keypair(rng)
    reg = Registry()
    batch = issue_coupon_batch(handle, 3, "02139", "healthcare", registry=reg)
    issuer = BadgeIssuer(handle, reg)
    session = PharmacySession(vk_issuer=vk, registry=reg, signer=issuer, rng=rng)

    paper_badge1, paper_status1, passkey = session.issue_credentials_paper(
        batch[0], _dose(1), PII
    )
    paper_badge2, paper_status2 = session.second_dose(paper_badge1, _dose(2))

    _, holder_vk = generate_keypair(rng)
    tree = build_pii_tree(PII, rng=rng)
    app_badge1, app_status1 = session.issue_credentials_app(
        batch[1], _dose(1), tree.root, holder_vk
    )
    app_badge2, app_status2 = session.second_dose(app_badge1, _dose(2), user_key=holder_vk)
    proof = prove_disclosure(tree, ["name", "zip"])

    venue = make_venue(handle, "V-GOLDEN", rng)
    adv = venue.advertisement

    digest = bytes(range(32))
    info = BadgeInfo(dose_history=(_dose(1),), coupon=batch[2], binding=Commitment(digest))
    payload = StatusPayload(
        level=VaccinationLevel.DOSE1, binding=PasskeyHash(digest), date="2021-03-01"
    )
    request = encode_request(info, payload)
    response = handle_request_bytes(issuer, request)

    objects = {
        "coupon": batch[0],
        "badge_paper_dose1": paper_badge1,
        "badge_paper_dose2": paper_badge2,
        "badge_app_dose1": app_badge1,
        "badge_app_dose2": app_badge2,
        "status_paper_dose1": paper_status1,
        "status_paper_dose2": paper_status2,
        "status_app_dose1": app_status1,
        "status_app_dose2": app_status2,
        "passkey": passkey,
        "disclosure_proof": proof,
    }
    extra = {
        "coupon_url": export_coupon_url(batch[0]),
        "advertisement": canonical.encode(adv.to_wire()).hex(),
        "cert_digest": adv.cert_digest().hex(),
        "request_frame": request.hex(),
        "response_frame": response.hex(),
    }
    return objects, extra, adv


OBJECT_NAMES = [
    "coupon",
    "badge_paper_dose1",
    "badge_paper_dose2",
    "badge_app_dose1",
    "badge_app_dose2",
    "status_paper_dose1",
    "status_paper_dose2",
    "status_app_dose1",
    "status_app_dose2",
    "passkey",
    "disclosure_proof",
]


@pytest.fixture(scope="module")
def built():
    return _build()


@pytest.mark.parametrize("name", OBJECT_NAMES)
def test_object_bytes_are_pinned(built, name):
    objects, _, _ = built
    assert objects[name].to_bytes().hex() == GOLDEN[name]


@pytest.mark.parametrize("name", OBJECT_NAMES)
def test_pinned_bytes_decode_to_the_same_object(built, name):
    objects, _, _ = built
    obj = objects[name]
    back = type(obj).from_bytes(bytes.fromhex(GOLDEN[name]))
    assert back == obj
    assert decode_qr(encode_qr(obj)) == obj


@pytest.mark.parametrize(
    "name", ["coupon_url", "advertisement", "cert_digest", "request_frame", "response_frame"]
)
def test_other_wire_forms_are_pinned(built, name):
    _, extra, _ = built
    assert extra[name] == GOLDEN[name]


def test_pinned_coupon_url_and_advertisement_decode(built):
    objects, _, adv = built
    assert import_coupon_url(GOLDEN["coupon_url"]) == objects["coupon"]
    wire = canonical.decode(bytes.fromhex(GOLDEN["advertisement"]))
    assert VenueAdvertisement.from_wire(wire) == adv


def test_pinned_types_match(built):
    objects, _, _ = built
    kinds = {
        "coupon": Coupon,
        "passkey": Passkey,
        "disclosure_proof": DisclosureProof,
    }
    for name, obj in objects.items():
        expected = kinds.get(name, Badge if name.startswith("badge") else Status)
        assert type(obj) is expected
