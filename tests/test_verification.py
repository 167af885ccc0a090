"""Venue-side verification: accept paths, rejection reasons, totality
under garbage input, and the cross-venue linkage audit."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkage import VenueTranscript, linkage_audit
from vaxcred import crypto, verification
from vaxcred.coupons import issue_coupon_batch
from vaxcred.credentials import DoseInfo, Passkey, Status, VaccinationLevel
from vaxcred.crypto import generate_keypair
from vaxcred.errors import EmptyRequestError
from vaxcred.vaccination import BadgeIssuer, PharmacySession
from vaxcred.verification import (
    Reject,
    Verdict,
    verify_badge,
    verify_presentation,
    verify_status,
)
from vaxcred.wallet import (
    DisclosureConsent,
    Presentation,
    PresentationKind,
    present,
    store_credentials,
    wallet_init_app,
    wallet_init_paper,
)

PII = [("dob", "1964-07-07"), ("name", "Kim Sample"), ("zip", "02139-0042")]


def _dose(n=1, date="2021-02-01"):
    return DoseInfo(product="VX-ALPHA", lot=f"L-{n}", date=date,
                    dose_number=n, site_id="S-01")


@pytest.fixture
def session(issuer, issuer_key, registry, rng):
    return PharmacySession(
        vk_issuer=issuer_key, registry=registry,
        signer=BadgeIssuer(issuer, registry), rng=rng,
    )


@pytest.fixture
def paper_wallet(issuer, registry, session):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry)[0]
    wallet = wallet_init_paper(coupon=coupon)
    store_credentials(wallet, *session.issue_credentials_paper(coupon, _dose(), PII))
    return wallet


@pytest.fixture
def app_wallet(issuer, registry, session, rng):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry, start_index=300)[0]
    wallet = wallet_init_app(PII, coupon=coupon, rng=rng)
    badge, status = session.issue_credentials_app(
        coupon, _dose(), wallet.pii_tree.root, wallet.verifying_key
    )
    store_credentials(wallet, badge, status)
    return wallet


def test_accept_all_four_kinds(issuer_key, paper_wallet, app_wallet):
    consent = DisclosureConsent(granted=True, labels=("dob",))
    cases = [
        present(paper_wallet, PresentationKind.BADGE_ONLY),
        present(paper_wallet, PresentationKind.STATUS_ONLY),
        present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=True)),
        present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE, consent),
    ]
    for presentation in cases:
        verdict = verify_presentation(issuer_key, presentation)
        assert isinstance(verdict, Verdict), presentation.kind
        assert verdict.level is VaccinationLevel.DOSE1


def test_passkey_presentation_discloses_fields(issuer_key, paper_wallet):
    p = present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=True))
    verdict = verify_presentation(issuer_key, p)
    assert dict(verdict.disclosed) == dict((l, v) for l, v in PII)


def test_disclosure_returns_only_consented(issuer_key, app_wallet):
    p = present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=True, labels=("zip",)))
    verdict = verify_presentation(issuer_key, p)
    assert dict(verdict.disclosed) == {"zip": "02139-0042"}


def test_required_labels_enforced(issuer_key, app_wallet):
    p = present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=True, labels=("zip",)))
    reject = verify_presentation(issuer_key, p, required_labels=("dob",))
    assert isinstance(reject, Reject)
    assert "missing-labels" in reject.reason


def test_wrong_issuer_key_rejected(rng, paper_wallet):
    _, other = generate_keypair(rng)
    p = present(paper_wallet, PresentationKind.STATUS_ONLY)
    reject = verify_presentation(other, p)
    assert isinstance(reject, Reject) and reject.reason == "bad-signature"


def test_multiple_accepted_keys(issuer_key, rng, paper_wallet):
    _, other = generate_keypair(rng)
    p = present(paper_wallet, PresentationKind.STATUS_ONLY)
    assert isinstance(verify_presentation([other, issuer_key], p), Verdict)
    assert isinstance(verify_presentation([other], p), Reject)


def test_tampered_status_rejected(issuer_key, paper_wallet):
    status = paper_wallet.status
    bent = Status(payload=status.payload,
                  signature=bytes([status.signature[0] ^ 1]) + status.signature[1:])
    p = Presentation(kind=PresentationKind.STATUS_ONLY, status=bent)
    assert isinstance(verify_presentation(issuer_key, p), Reject)


def test_swapped_passkey_rejected(issuer, issuer_key, registry, session, paper_wallet):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry, start_index=600)[0]
    _, _, other_passkey = session.issue_credentials_paper(
        coupon, _dose(), [("dob", "2000-01-01"), ("name", "Not Kim")]
    )
    p = Presentation(kind=PresentationKind.STATUS_WITH_PASSKEY,
                     status=paper_wallet.status, passkey=other_passkey)
    reject = verify_presentation(issuer_key, p)
    assert isinstance(reject, Reject) and reject.reason == "passkey-mismatch"


def test_proof_against_other_root_rejected(issuer_key, app_wallet, rng,
                                           issuer, registry, session):
    from vaxcred.merkle import build_pii_tree, prove_disclosure

    other_tree = build_pii_tree(PII, rng)  # same fields, different salts
    forged_proof = prove_disclosure(other_tree, ("dob",))
    p = Presentation(kind=PresentationKind.STATUS_WITH_DISCLOSURE,
                     status=app_wallet.status, proof=forged_proof)
    reject = verify_presentation(issuer_key, p)
    assert isinstance(reject, Reject) and reject.reason == "bad-proof"


def test_verify_badge_and_status_total(issuer_key):
    assert verify_badge(issuer_key, None) is None
    assert verify_badge(issuer_key, "junk") is None
    assert verify_status(issuer_key, 42) is None


def test_verify_presentation_total_on_garbage(issuer_key):
    assert isinstance(verify_presentation(issuer_key, None), Reject)
    assert isinstance(verify_presentation(issuer_key, b"bytes"), Reject)
    assert isinstance(verify_presentation(issuer_key, object()), Reject)


def _fault(*args, **kwargs):
    raise RuntimeError("fault")


class _BrokenEd25519:
    from_public_bytes = staticmethod(_fault)


@pytest.mark.parametrize("step", ["signature", "passkey", "disclosure"])
def test_a_fault_is_not_a_refusal(step, issuer_key, paper_wallet, app_wallet, monkeypatch):
    """verify_presentation answers a Reject for a bad presentation, but a
    fault in a step it runs propagates instead of reading as one."""
    if step == "signature":
        shown = present(paper_wallet, PresentationKind.STATUS_ONLY)
        monkeypatch.setattr(crypto, "_verified", set())  # no remembered verify
        monkeypatch.setattr(crypto, "Ed25519PublicKey", _BrokenEd25519)
    elif step == "passkey":
        shown = present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                        DisclosureConsent(granted=True))
        monkeypatch.setattr(Passkey, "commitment", _fault)
    else:
        shown = present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                        DisclosureConsent(granted=True, labels=("name",)))
        monkeypatch.setattr(verification, "verify_disclosure", _fault)
    with pytest.raises(RuntimeError):
        verify_presentation(issuer_key, shown)


@given(st.binary(min_size=1, max_size=200), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_fuzz_decoded_presentations_never_raise(issuer_pair, blob, kind_index):
    """Random bytes fed through the wire decoder either fail to parse or
    verify to a Reject; verify_presentation itself never raises."""
    _, issuer_key = issuer_pair
    try:
        p = Presentation.from_bytes(blob)
    except Exception:
        return
    result = verify_presentation(issuer_key, p)
    assert isinstance(result, (Verdict, Reject))


def test_fuzz_mutated_real_presentation(issuer_key, paper_wallet):
    p = present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=True))
    wire = bytearray(p.to_bytes())
    r = random.Random(1234)
    accepted = 0
    for _ in range(400):
        blob = bytearray(wire)
        for _ in range(r.randrange(1, 4)):
            blob[r.randrange(len(blob))] ^= 1 << r.randrange(8)
        try:
            mutated = Presentation.from_bytes(bytes(blob))
        except Exception:
            continue
        result = verify_presentation(issuer_key, mutated)
        assert isinstance(result, (Verdict, Reject))
        if isinstance(result, Verdict) and bytes(blob) != bytes(wire):
            accepted += 1
    assert accepted == 0  # no mutation may verify


# -- linkage audit ------------------------------------------------------------


def test_linkage_audit_needs_two(issuer_key, paper_wallet):
    p = present(paper_wallet, PresentationKind.STATUS_ONLY)
    with pytest.raises(EmptyRequestError):
        linkage_audit([VenueTranscript.record("V1", p)])


def test_paper_passkey_presentations_link_across_venues(issuer_key, paper_wallet):
    t1 = VenueTranscript.record(
        "V1", present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                      DisclosureConsent(granted=True)))
    t2 = VenueTranscript.record(
        "V2", present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                      DisclosureConsent(granted=True)))
    report = linkage_audit([t1, t2])
    assert report.any_linkable  # same commitment digest at both doors
    assert report.linkable(0, 1)


def test_app_status_only_links_via_root(issuer_key, app_wallet):
    t1 = VenueTranscript.record("V1", present(app_wallet, PresentationKind.STATUS_ONLY))
    t2 = VenueTranscript.record("V2", present(app_wallet, PresentationKind.STATUS_ONLY))
    report = linkage_audit([t1, t2])
    assert report.any_linkable
    shared = report.pairs[0][2]
    assert "pii-root" in shared and "holder-key" in shared


def test_unrelated_holders_do_not_link(issuer, issuer_key, registry, session, rng):
    wallets = []
    coupons = issue_coupon_batch(issuer, 2, "02139", "healthcare",
                                 registry=registry, start_index=700)
    for i, coupon in enumerate(coupons):
        w = wallet_init_app([("dob", f"19{60 + i}-01-01"), ("name", f"P{i}")],
                            coupon=coupon, rng=rng)
        badge, status = session.issue_credentials_app(
            coupon, _dose(), w.pii_tree.root, w.verifying_key
        )
        store_credentials(w, badge, status)
        wallets.append(w)
    t1 = VenueTranscript.record("V1", present(wallets[0], PresentationKind.STATUS_ONLY))
    t2 = VenueTranscript.record("V2", present(wallets[1], PresentationKind.STATUS_ONLY))
    assert not linkage_audit([t1, t2]).any_linkable
