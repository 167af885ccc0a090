"""Pharmacy flows: admission, credential issuance, second doses, and the
registry/signing interplay (atomicity, idempotent retries, offline signer)."""

import dataclasses
import datetime

import pytest

from vaxcred import canonical, crypto
from vaxcred.coupons import Coupon, CouponPayload, issue_coupon_batch
from vaxcred.credentials import (
    AppBinding,
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    PasskeyHash,
    StatusPayload,
    TreeRoot,
    VaccinationLevel,
    pii_commitment,
    status_for,
)
from vaxcred.crypto import generate_keypair, new_salt, sha256
from vaxcred.errors import (
    AlreadyUsedError,
    BadCouponError,
    CanonicalError,
    MismatchError,
    ProductMismatchError,
    ServiceUnreachableError,
    UnknownCouponError,
    VaxError,
    WrongStateError,
)
from vaxcred.merkle import build_pii_tree
from vaxcred.registry import Stage
from vaxcred.service import SigningClient, encode_request, handle_request_bytes
from vaxcred.vaccination import (
    BadgeIssuer,
    PharmacySession,
    badge_digest,
    check_admission,
)
from vaxcred.verification import verify_badge, verify_status

PII = [("dob", "1962-11-30"), ("name", "Sam Example")]


def _dose(n=1, date="2021-02-01", product="VX-ALPHA", lot="L-1", site="S-01"):
    return DoseInfo(product=product, lot=lot, date=date, dose_number=n, site_id=site)


@pytest.fixture
def session(issuer, issuer_key, registry, rng):
    return PharmacySession(
        vk_issuer=issuer_key,
        registry=registry,
        signer=BadgeIssuer(issuer, registry),
        rng=rng,
    )


@pytest.fixture
def coupon(issuer, registry):
    return issue_coupon_batch(issuer, 1, "02139", "healthcare", registry=registry)[0]


def test_admit_ok(issuer_key, registry, coupon):
    check_admission(issuer_key, registry, coupon)


def test_admit_rejects_unknown(issuer, issuer_key, registry):
    stray = issue_coupon_batch(issuer, 1, "02139", "healthcare")[0]  # not registered
    with pytest.raises(UnknownCouponError):
        check_admission(issuer_key, registry, stray)


def test_admit_rejects_bad_signature(issuer_key, registry, coupon):
    forged = Coupon(
        payload=CouponPayload(index=5, zip_code="02139", job_type="healthcare"),
        signature=coupon.signature,
    )
    with pytest.raises(BadCouponError):
        check_admission(issuer_key, registry, forged)


def test_admit_rejects_used(issuer_key, registry, coupon, session):
    session.issue_credentials_paper(coupon, _dose(), PII)
    with pytest.raises(AlreadyUsedError):
        check_admission(issuer_key, registry, coupon)
    # but a dose-1 holder coming back for dose 2 is not "admission": that
    # path goes through second_dose below


def test_admit_refuses_garbage_as_a_bad_coupon(issuer_key, registry):
    for garbage in ("garbage", None):
        with pytest.raises(BadCouponError):
            check_admission(issuer_key, registry, garbage)


REFUSALS = {"forged": "bad-coupon", "bit-flip": "bad-coupon", "other-key": "bad-coupon",
            "unknown": "unknown-coupon", "used": "already-used", "dismantled": "dismantled"}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_admission_and_first_dose_refuse_alike(case, issuer, issuer_key, registry,
                                               coupon, session, rng):
    """check_admission raises the error a first dose raises on the same
    coupon; the issuer, sent the signing frame, replies with its code too."""
    if case == "forged":
        coupon = Coupon(payload=CouponPayload(index=9, zip_code="02139",
                                              job_type="healthcare"),
                        signature=coupon.signature)
    elif case == "bit-flip":
        flipped = bytes([coupon.signature[0] ^ 1]) + coupon.signature[1:]
        coupon = Coupon(payload=coupon.payload, signature=flipped)
    elif case == "other-key":
        coupon = Coupon.sign(generate_keypair(rng)[0], coupon.payload)
    elif case == "unknown":
        coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare", start_index=50)[0]
    elif case == "used":
        session.issue_credentials_paper(coupon, _dose(), PII)
    else:
        registry.dismantle()
    with pytest.raises(VaxError) as refused:
        check_admission(issuer_key, registry, coupon)
    with pytest.raises(VaxError) as raised:
        session.issue_credentials_paper(coupon, _dose(), PII)
    info = BadgeInfo(binding=Commitment(pii_commitment(PII, new_salt(rng))), coupon=coupon,
                     dose_history=(_dose(),))
    reply = canonical.decode(handle_request_bytes(
        BadgeIssuer(issuer, registry), encode_request(info, status_for(info, None))))
    assert refused.value.code == raised.value.code == reply["error"] == REFUSALS[case]


@pytest.fixture
def verifies(monkeypatch):
    """Counts Ed25519 verifies: every signature check goes through crypto.verify."""
    calls = []
    real = crypto.verify
    monkeypatch.setattr(crypto, "verify", lambda *args: calls.append(1) or real(*args))
    return calls


def test_dose_path_verifies(session, coupon, verifies):
    """A registered coupon is admitted by its registry digest, at the
    counter and at the issuer, and a second dose's badge by the digest
    recorded when it was signed: neither dose verifies a signature."""
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    assert len(verifies) == 0
    session.second_dose(badge, _dose(n=2, date="2021-02-22"))
    assert len(verifies) == 0


def test_first_dose_records_the_signed_badge(issuer, registry, coupon, session):
    """The dose1 record carries the badge digest, and a recognized retry,
    signed alike, leaves it as it was."""
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    digest = badge_digest(badge.signature, badge.info.to_bytes())
    assert registry.match_badge(coupon.coupon_id, digest).stage is Stage.DOSE1
    status = status_for(badge.info, None)
    retried = BadgeIssuer(issuer, registry).sign_badge_request(badge.info, status)
    assert retried[0] == badge.signature
    assert registry.match_badge(coupon.coupon_id, digest).stage is Stage.DOSE1
    assert registry.match_badge(coupon.coupon_id, bytes(32)) is None
    assert registry.match_badge(bytes(32), digest) is None


SECOND_DOSE_REFUSALS = {"other-lot": "bad-signature", "other-binding": "bad-signature",
                        "flipped-signature": "bad-signature", "after-dose-2": "wrong-state",
                        "dismantled": "dismantled"}


@pytest.mark.parametrize("case", list(SECOND_DOSE_REFUSALS))
def test_hostile_second_doses_refused(case, registry, coupon, session, rng, verifies):
    """A badge the registry did not record is verified, so an altered one
    is a bad signature; the recorded one is refused once spent or after a
    dismantle, with the codes a verify-first counter gave."""
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    if case == "other-lot":
        info = dataclasses.replace(badge.info, dose_history=(_dose(lot="L-9"),))
        badge = Badge(info=info, signature=badge.signature)
    elif case == "other-binding":
        binding = Commitment(pii_commitment(PII, new_salt(rng)))
        badge = Badge(info=dataclasses.replace(badge.info, binding=binding),
                      signature=badge.signature)
    elif case == "flipped-signature":
        flipped = badge.signature[:-1] + bytes([badge.signature[-1] ^ 1])
        badge = Badge(info=badge.info, signature=flipped)
    elif case == "after-dose-2":
        session.second_dose(badge, _dose(n=2, date="2021-02-22"))
    else:
        registry.dismantle()
    with pytest.raises(VaxError) as refused:
        session.second_dose(badge, _dose(n=2, date="2021-02-23"))
    assert refused.value.code == SECOND_DOSE_REFUSALS[case]
    if case.startswith(("other", "flipped")):
        assert len(verifies) == 1


def test_paper_issue_round(issuer_key, registry, coupon, session):
    badge, status, passkey = session.issue_credentials_paper(coupon, _dose(), PII)
    parsed = verify_badge(issuer_key, badge)
    assert parsed is not None
    assert parsed.level is VaccinationLevel.DOSE1
    assert verify_status(issuer_key, status) is VaccinationLevel.DOSE1
    assert passkey.commitment() == badge.info.binding.digest
    assert passkey.commitment() == status.payload.binding.digest
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE1
    # bindings agree between badge and status
    assert isinstance(badge.info.binding, Commitment)
    assert isinstance(status.payload.binding, PasskeyHash)
    assert badge.info.binding.digest == status.payload.binding.digest


def _text_reachable(value, depth=0):
    """Every str and bytes reachable from ``value`` through object
    attributes and containers, a few levels deep."""
    if isinstance(value, (str, bytes)):
        yield value
        return
    if depth > 4:
        return
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = value
    else:  # attributes, including the fields of slotted dataclasses
        items = [*getattr(value, "__dict__", {}).values()]
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            items += [getattr(value, f.name) for f in dataclasses.fields(value)]
    for item in items:
        yield from _text_reachable(item, depth + 1)


def test_paper_issue_drops_pii_by_default(session, coupon):
    """After issuing, nothing the session holds (its signer and registry
    included) contains an identity value or the commitment salt."""
    _, _, passkey = session.issue_credentials_paper(coupon, _dose(), PII)
    held = list(_text_reachable(session))
    assert any(isinstance(v, bytes) for v in held)  # the scan reaches stored bytes
    for label, value in PII:
        assert not any(value in v for v in held if isinstance(v, str))
        assert not any(value.encode() in v for v in held if isinstance(v, bytes))
    assert not any(passkey.salt in v for v in held if isinstance(v, bytes))


def test_app_issue_round(issuer_key, registry, coupon, session, rng):
    handle, user_key = generate_keypair(rng)
    tree = build_pii_tree(PII, rng)
    badge, status = session.issue_credentials_app(coupon, _dose(), tree.root, user_key)
    assert verify_badge(issuer_key, badge).level is VaccinationLevel.DOSE1
    assert verify_status(issuer_key, status) is VaccinationLevel.DOSE1
    assert badge.info.binding.digest == tree.root
    binding = status.payload.binding
    assert isinstance(binding, AppBinding)
    assert binding.user_key == user_key and binding.pii_root == tree.root
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE1


def test_double_issue_rejected(session, coupon):
    session.issue_credentials_paper(coupon, _dose(), PII)
    with pytest.raises(AlreadyUsedError):
        session.issue_credentials_paper(coupon, _dose(), PII)


def test_issue_unregistered_coupon_rejected(issuer, session):
    stray = issue_coupon_batch(issuer, 1, "02139", "healthcare")[0]
    with pytest.raises(UnknownCouponError):
        session.issue_credentials_paper(stray, _dose(), PII)


def test_issue_forged_coupon_rejected(session, coupon):
    forged = Coupon(
        payload=CouponPayload(index=9, zip_code="02139", job_type="healthcare"),
        signature=coupon.signature,
    )
    with pytest.raises((BadCouponError, UnknownCouponError)):
        session.issue_credentials_paper(forged, _dose(), PII)


def _utc_day(days: int) -> str:
    """The UTC date ``days`` from now: the clock the issuer's date rule reads."""
    today = datetime.datetime.now(datetime.timezone.utc).date()
    return (today + datetime.timedelta(days=days)).isoformat()


def test_future_dose_date_rejected(registry, coupon, session):
    """The issuer refuses a dose dated past its own UTC date and a day's
    grace, before the registry moves; the counter reads no clock."""
    with pytest.raises(CanonicalError):
        session.issue_credentials_paper(coupon, _dose(date=_utc_day(2)), PII)
    assert registry.check(coupon.coupon_id).stage is Stage.UNUSED
    session.issue_credentials_paper(coupon, _dose(date=_utc_day(1)), PII)
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE1


SIGNER_RULES = {  # case -> (dose number, product, days from UTC today, refusal)
    "dose1-dated-today": (1, "VX-ALPHA", 0, None),
    "dose1-dated-in-two-days": (1, "VX-ALPHA", 2, "canonical"),
    "dose2-dated-today": (2, "VX-ALPHA", 0, None),
    "dose2-dated-in-two-days": (2, "VX-ALPHA", 2, "canonical"),
    "dose2-of-another-product": (2, "VX-BETA", 0, "product-mismatch"),
}


@pytest.mark.parametrize("case", list(SIGNER_RULES))
def test_the_signer_states_the_course_rules(case, issuer, registry, coupon, session, rng):
    """A counter that sends a signing frame may have checked nothing, so
    the issuer itself refuses a course of two products and a dose dated
    past its own clock. A refusal leaves the registry where it was."""
    number, product, days, refusal = SIGNER_RULES[case]
    dose = _dose(n=number, product=product, date=_utc_day(days))
    if number == 1:
        info = BadgeInfo(binding=Commitment(pii_commitment(PII, new_salt(rng))),
                         coupon=coupon, dose_history=(dose,))
        before = Stage.UNUSED
    else:
        badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
        info = dataclasses.replace(badge.info, dose_history=badge.info.dose_history + (dose,))
        before = Stage.DOSE1
    reply = canonical.decode(handle_request_bytes(
        BadgeIssuer(issuer, registry), encode_request(info, status_for(info, None))))
    stage = registry.check(coupon.coupon_id).stage
    if refusal is None:
        assert reply["ok"] is True and stage is not before
    else:
        assert reply == {"error": refusal, "ok": False} and stage is before


DOSE1_REWRITES = {  # case -> the dose-1 record a second-dose frame restates
    "other-product-and-earlier-date": _dose(product="VX-BETA", date="2021-01-01"),
    "other-lot": _dose(lot="L-9"),
}


@pytest.mark.parametrize("case", list(DOSE1_REWRITES))
def test_a_second_dose_frame_cannot_rewrite_dose_one(case, issuer, registry, coupon, session):
    """A signing frame carries its own copy of dose 1. The issuer signs that
    copy again and matches it against the badge digest the registry kept
    at dose 1, so a frame restating dose 1 (and a dose 2 to suit it) is
    refused, and the coupon stays at dose 1."""
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    first = DOSE1_REWRITES[case]
    second = _dose(n=2, date="2021-02-22", product=first.product)
    info = dataclasses.replace(badge.info, dose_history=(first, second))
    reply = canonical.decode(handle_request_bytes(
        BadgeIssuer(issuer, registry), encode_request(info, status_for(info))))
    assert reply == {"error": "mismatch", "ok": False}
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE1
    honest = dataclasses.replace(info, dose_history=(*badge.info.dose_history,
                                                     _dose(n=2, date="2021-02-22")))
    reply = canonical.decode(handle_request_bytes(
        BadgeIssuer(issuer, registry), encode_request(honest, status_for(honest))))
    assert reply["ok"] is True
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE2


def test_a_frame_whose_digest_is_not_its_request_is_refused(issuer, registry, coupon, rng):
    """The digest a frame carries must be the one its badge and status
    bytes give: otherwise the issuer answers ``canonical``, records
    nothing and keeps no copy of the request."""
    info = BadgeInfo(binding=Commitment(pii_commitment(PII, new_salt(rng))), coupon=coupon,
                     dose_history=(_dose(),))
    frame = canonical.decode(encode_request(info, status_for(info)))
    badge_issuer = BadgeIssuer(issuer, registry)
    for req in (bytes(32), sha256(frame["req"])):
        request = canonical.encode({**frame, "req": req})
        reply = canonical.decode(handle_request_bytes(badge_issuer, request))
        assert reply == {"error": "canonical", "ok": False}
    assert registry.check(coupon.coupon_id).stage is Stage.UNUSED
    assert badge_issuer.received_requests == []


BADGE_SHAPES = {  # case -> (dose numbers, their days in February 2021, the rule refusing)
    "no-doses": ((), (), "at least one dose"),
    # the numbering rule refuses three doses too; the message pins this check
    "three-doses": ((1, 2, 2), (1, 2, 3), "at most two doses"),
    "numbered-2": ((2,), (1,), "sequential"),
    "numbered-1-1": ((1, 1), (1, 2), "sequential"),
    "dated-before-the-first": ((1, 2), (10, 5), "dated before the first"),
}


@pytest.mark.parametrize("case", list(BADGE_SHAPES))
def test_badge_info_states_the_shape_of_a_course(case, issuer, registry, coupon, rng):
    """BadgeInfo alone refuses these histories, so a decoder and the signer
    refuse them alike: built directly, decoded from bytes, or sent to the
    issuer as a signing frame, which moves no registry entry."""
    numbers, days, rule = BADGE_SHAPES[case]
    doses = tuple(_dose(n=n, date=f"2021-02-{d:02d}") for n, d in zip(numbers, days))
    binding = Commitment(pii_commitment(PII, new_salt(rng)))
    with pytest.raises(CanonicalError, match=rule):
        BadgeInfo(dose_history=doses, coupon=coupon, binding=binding)
    one = BadgeInfo(dose_history=(_dose(),), coupon=coupon, binding=binding)
    badge_wire = {**one.to_wire(), "doses": [d.to_wire() for d in doses]}
    with pytest.raises(CanonicalError, match=rule):
        BadgeInfo.from_bytes(canonical.encode(badge_wire))
    body = {"badge": badge_wire, "status": status_for(one).to_wire()}
    frame = canonical.encode({**body, "req": sha256(canonical.encode(body))})
    reply = canonical.decode(handle_request_bytes(BadgeIssuer(issuer, registry), frame))
    assert reply == {"error": "canonical", "ok": False}
    assert registry.check(coupon.coupon_id).stage is Stage.UNUSED


@pytest.mark.parametrize("case", [
    "wrong-level", "wrong-date", "other-commitment",
    "paper-badge-app-status", "app-badge-passkey-hash-status", "other-tree-root",
])
def test_issuer_rejects_inconsistent_pairing(case, issuer, registry, coupon, rng):
    """A signing request whose status is not the one its badge implies
    must fail before any registry transition."""
    digest = pii_commitment(PII, new_salt(rng))
    other = pii_commitment(PII, new_salt(rng))
    root = build_pii_tree(PII, rng).root
    _, user_key = generate_keypair(rng)
    paper = BadgeInfo(binding=Commitment(digest), coupon=coupon, dose_history=(_dose(),))
    app = dataclasses.replace(paper, binding=TreeRoot(root))
    dose1, date = VaccinationLevel.DOSE1, _dose().date
    info, status = {
        "wrong-level": (paper, StatusPayload(VaccinationLevel.FULLY, PasskeyHash(digest), date)),
        "wrong-date": (paper, StatusPayload(dose1, PasskeyHash(digest), "2021-02-02")),
        "other-commitment": (paper, StatusPayload(dose1, PasskeyHash(other), date)),
        "paper-badge-app-status": (paper, StatusPayload(dose1, AppBinding(user_key, digest), date)),
        "app-badge-passkey-hash-status": (app, StatusPayload(dose1, PasskeyHash(root), date)),
        "other-tree-root": (app, StatusPayload(dose1, AppBinding(user_key, other), date)),
    }[case]
    with pytest.raises(MismatchError):
        BadgeIssuer(issuer, registry).sign_badge_request(info, status)
    assert registry.check(coupon.coupon_id).stage is Stage.UNUSED


def test_second_dose_paper(issuer_key, registry, coupon, session):
    badge, status, passkey = session.issue_credentials_paper(coupon, _dose(), PII)
    badge2, status2 = session.second_dose(badge, _dose(n=2, date="2021-02-22", lot="L-2"))
    parsed = verify_badge(issuer_key, badge2)
    assert parsed.level is VaccinationLevel.FULLY
    assert len(badge2.info.dose_history) == 2
    assert verify_status(issuer_key, status2) is VaccinationLevel.FULLY
    # the original passkey still opens the refreshed credentials
    assert passkey.commitment() == badge2.info.binding.digest
    assert passkey.commitment() == status2.payload.binding.digest
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE2


def test_second_dose_app(issuer_key, registry, coupon, session, rng):
    _, user_key = generate_keypair(rng)
    tree = build_pii_tree(PII, rng)
    badge, _ = session.issue_credentials_app(coupon, _dose(), tree.root, user_key)
    badge2, status2 = session.second_dose(
        badge, _dose(n=2, date="2021-02-22"), user_key=user_key
    )
    assert verify_badge(issuer_key, badge2).level is VaccinationLevel.FULLY
    binding = status2.payload.binding
    assert binding.user_key == user_key and binding.pii_root == tree.root


def test_second_dose_app_needs_user_key(session, coupon, rng):
    _, user_key = generate_keypair(rng)
    tree = build_pii_tree(PII, rng)
    badge, _ = session.issue_credentials_app(coupon, _dose(), tree.root, user_key)
    with pytest.raises(MismatchError):
        session.second_dose(badge, _dose(n=2, date="2021-02-22"))


def test_second_dose_product_rule(session, coupon):
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    with pytest.raises(ProductMismatchError):
        session.second_dose(badge, _dose(n=2, date="2021-02-22", product="VX-BETA"))


def test_second_dose_date_order(session, coupon):
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(date="2021-02-10"), PII)
    with pytest.raises(VaxError):
        session.second_dose(badge, _dose(n=2, date="2021-02-05"))


def test_second_dose_twice_rejected(session, coupon):
    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    badge2, _ = session.second_dose(badge, _dose(n=2, date="2021-02-22"))
    with pytest.raises((WrongStateError, AlreadyUsedError)):
        session.second_dose(badge, _dose(n=2, date="2021-02-23"))
    with pytest.raises(WrongStateError):
        session.second_dose(badge2, _dose(n=2, date="2021-02-23"))


def test_second_dose_on_forged_badge(session, coupon, rng):
    from vaxcred.credentials import Badge

    badge, _, _ = session.issue_credentials_paper(coupon, _dose(), PII)
    forged = Badge(info=badge.info, signature=b"\x00" * 64)
    with pytest.raises(VaxError):
        session.second_dose(forged, _dose(n=2, date="2021-02-22"))


def test_identical_retry_returns_identical_credentials(issuer, issuer_key,
                                                       registry, coupon, rng):
    """Deterministic signatures + recorded request digest: replaying the
    exact signing request after a crash yields byte-identical credentials
    and no second registry transition."""
    badge_issuer = BadgeIssuer(issuer, registry)
    salt = new_salt(rng)
    digest = pii_commitment(PII, salt)
    info = BadgeInfo(binding=Commitment(digest=digest), coupon=coupon,
                     dose_history=(_dose(),))
    status = StatusPayload(level=VaccinationLevel.DOSE1,
                           binding=PasskeyHash(digest=digest), date=_dose().date)
    first = badge_issuer.sign_badge_request(info, status)
    again = badge_issuer.sign_badge_request(info, status)
    assert first == again
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE1


def test_offline_signer_leaves_registry_untouched(issuer_key, registry, coupon, rng):
    session = PharmacySession(
        vk_issuer=issuer_key, registry=registry,
        signer=SigningClient("127.0.0.1", 1), rng=rng,
    )
    with pytest.raises(ServiceUnreachableError):
        session.issue_credentials_paper(coupon, _dose(), PII)
    assert registry.check(coupon.coupon_id).stage is Stage.UNUSED
