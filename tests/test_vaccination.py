"""Pharmacy flows: admission, credential issuance, second doses, and the
registry/signing interplay (atomicity, idempotent retries, offline signer)."""

import dataclasses

import pytest

from vaxcred.coupons import Coupon, CouponPayload, issue_coupon_batch
from vaxcred.credentials import (
    AppBinding,
    BadgeInfo,
    Commitment,
    DoseInfo,
    PasskeyHash,
    StatusPayload,
    TreeRoot,
    VaccinationLevel,
    pii_commitment,
)
from vaxcred.crypto import generate_keypair, new_salt
from vaxcred.errors import (
    AlreadyUsedError,
    BadCouponError,
    MismatchError,
    ProductMismatchError,
    ServiceUnreachableError,
    UnknownCouponError,
    VaxError,
    WrongStateError,
)
from vaxcred.merkle import build_pii_tree
from vaxcred.registry import Stage
from vaxcred.service import SigningClient
from vaxcred.vaccination import (
    AdmitDecision,
    BadgeIssuer,
    PharmacySession,
    pharmacy_admit,
)
from vaxcred.verification import verify_badge, verify_passkey_binding, verify_status

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
    decision = pharmacy_admit(issuer_key, registry, coupon)
    assert decision.admitted and decision.reason == AdmitDecision.OK


def test_admit_rejects_unknown(issuer, issuer_key, registry):
    stray = issue_coupon_batch(issuer, 1, "02139", "healthcare")[0]  # not registered
    decision = pharmacy_admit(issuer_key, registry, stray)
    assert not decision.admitted and decision.reason == AdmitDecision.UNKNOWN


def test_admit_rejects_bad_signature(issuer_key, registry, coupon):
    forged = Coupon(
        payload=CouponPayload(index=5, zip_code="02139", job_type="healthcare"),
        signature=coupon.signature,
    )
    decision = pharmacy_admit(issuer_key, registry, forged)
    assert not decision.admitted and decision.reason == AdmitDecision.BAD_SIGNATURE


def test_admit_rejects_used(issuer_key, registry, coupon, session):
    session.issue_credentials_paper(coupon, _dose(), PII)
    decision = pharmacy_admit(issuer_key, registry, coupon)
    assert not decision.admitted and decision.reason == AdmitDecision.ALREADY_USED
    # but a dose-1 holder coming back for dose 2 is not "admission": that
    # path goes through second_dose below


def test_admit_never_raises(issuer_key, registry):
    assert not pharmacy_admit(issuer_key, registry, "garbage").admitted
    assert not pharmacy_admit(issuer_key, registry, None).admitted


def test_paper_issue_round(issuer_key, registry, coupon, session):
    badge, status, passkey = session.issue_credentials_paper(coupon, _dose(), PII)
    parsed = verify_badge(issuer_key, badge)
    assert parsed is not None
    assert parsed.level is VaccinationLevel.DOSE1
    assert verify_status(issuer_key, status) is VaccinationLevel.DOSE1
    assert verify_passkey_binding(badge, passkey)
    assert verify_passkey_binding(status, passkey)
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


def test_future_dose_date_rejected(issuer, issuer_key, registry, coupon, rng):
    session = PharmacySession(
        vk_issuer=issuer_key, registry=registry,
        signer=BadgeIssuer(issuer, registry), today="2021-02-01", rng=rng,
    )
    with pytest.raises(VaxError):
        session.issue_credentials_paper(coupon, _dose(date="2021-02-02"), PII)


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
    assert verify_passkey_binding(badge2, passkey)
    assert verify_passkey_binding(status2, passkey)
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
        signer=SigningClient("127.0.0.1", 1, timeout=0.3), rng=rng,
    )
    with pytest.raises(ServiceUnreachableError):
        session.issue_credentials_paper(coupon, _dose(), PII)
    assert registry.check(coupon.coupon_id).stage is Stage.UNUSED
