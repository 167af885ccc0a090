"""Wallet state, consent-gated presentations, encrypted persistence."""

import builtins
import errno
import json
import os
from pathlib import Path

import pytest

from vaxcred import canonical, crypto, wallet
from vaxcred.coupons import issue_coupon_batch
from vaxcred.crypto import KeyHandle
from vaxcred.credentials import DoseInfo, VaccinationLevel
from vaxcred.errors import (
    AuthFailureError,
    CanonicalError,
    ConsentDeniedError,
    EmptyRequestError,
    MismatchError,
    MissingCredentialError,
    NotApplicableError,
    VariantError,
    VaxError,
)
from vaxcred.merkle import verify_disclosure
from vaxcred.vaccination import BadgeIssuer, PharmacySession
from vaxcred.wallet import (
    DisclosureConsent,
    Presentation,
    PresentationKind,
    load_wallet,
    present,
    save_wallet,
    second_dose_due,
    store_credentials,
    wallet_init_app,
    wallet_init_paper,
)

PII = [("dob", "1970-01-02"), ("name", "Lee Holder"), ("zip", "02139-0007")]


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
def paper_wallet(issuer, registry, session, rng):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry)[0]
    wallet = wallet_init_paper(coupon=coupon)
    badge, status, passkey = session.issue_credentials_paper(coupon, _dose(), PII)
    store_credentials(wallet, badge, status, passkey)
    return wallet


@pytest.fixture
def app_wallet(issuer, registry, session, rng):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry, start_index=500)[0]
    wallet = wallet_init_app(PII, coupon=coupon, rng=rng)
    badge, status = session.issue_credentials_app(
        coupon, _dose(), wallet.pii_tree.root, wallet.verifying_key
    )
    store_credentials(wallet, badge, status)
    return wallet


def test_paper_wallet_holds_all_three(paper_wallet):
    assert paper_wallet.variant == "paper"
    assert paper_wallet.badge is not None
    assert paper_wallet.status is not None
    assert paper_wallet.passkey is not None
    assert paper_wallet.key is None and paper_wallet.pii_tree is None


def test_app_wallet_holds_key_and_tree(app_wallet):
    assert app_wallet.variant == "app"
    assert app_wallet.passkey is None
    assert app_wallet.key is not None
    assert app_wallet.verifying_key is not None
    assert sorted(app_wallet.pii_tree.labels) == sorted(l for l, _ in PII)


def test_store_rejects_mismatched_passkey(issuer, registry, session, rng):
    c1, c2 = issue_coupon_batch(issuer, 2, "02139", "healthcare",
                                registry=registry, start_index=100)
    w1 = wallet_init_paper(coupon=c1)
    _, _, passkey1 = session.issue_credentials_paper(c1, _dose(), PII)
    badge2, status2, _ = session.issue_credentials_paper(
        c2, _dose(), [("dob", "1999-09-09"), ("name", "Other")]
    )
    with pytest.raises(MismatchError):
        store_credentials(w1, badge2, status2, passkey1)


def test_store_rejects_passkey_in_app_wallet(app_wallet, paper_wallet):
    with pytest.raises(VariantError):
        store_credentials(app_wallet, app_wallet.badge, app_wallet.status,
                          paper_wallet.passkey)


def test_present_status_only(paper_wallet):
    p = present(paper_wallet, PresentationKind.STATUS_ONLY)
    assert p.kind is PresentationKind.STATUS_ONLY
    assert p.status is not None and p.passkey is None and p.proof is None


def test_present_passkey_needs_consent(paper_wallet):
    with pytest.raises(ConsentDeniedError):
        present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY)
    with pytest.raises(ConsentDeniedError):
        present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=False))
    p = present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=True))
    assert p.passkey is not None


def test_present_disclosure_consent_names_fields(app_wallet):
    with pytest.raises(ConsentDeniedError):
        present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=False, labels=("dob",)))
    with pytest.raises(EmptyRequestError):
        present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=True))
    p = present(app_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=True, labels=("dob",)))
    assert p.proof is not None
    assert [l for l, _, _ in p.proof.disclosed] == ["dob"]
    # and only the consented leaf appears
    assert verify_disclosure(app_wallet.pii_tree.root, p.proof)
    blob = p.to_bytes()
    assert b"Lee Holder" not in blob and b"02139-0007" not in blob


def test_present_variant_rules(paper_wallet, app_wallet):
    with pytest.raises(VariantError):
        present(app_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=True))
    with pytest.raises(VariantError):
        present(paper_wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=True, labels=("dob",)))


def test_present_needs_credentials(rng):
    empty = wallet_init_paper()
    with pytest.raises(MissingCredentialError):
        present(empty, PresentationKind.STATUS_ONLY)
    with pytest.raises(MissingCredentialError):
        present(empty, PresentationKind.BADGE_ONLY)


def test_presentation_bytes_round_trip(paper_wallet):
    p = present(paper_wallet, PresentationKind.STATUS_WITH_PASSKEY,
                DisclosureConsent(granted=True))
    again = Presentation.from_bytes(p.to_bytes())
    assert again.kind is p.kind
    assert again.to_bytes() == p.to_bytes()


def test_presentation_pairing_enforced(paper_wallet, app_wallet):
    status = paper_wallet.status
    with pytest.raises(VaxError):
        Presentation(kind=PresentationKind.STATUS_ONLY, status=status,
                     passkey=paper_wallet.passkey)
    with pytest.raises(VaxError):
        Presentation(kind=PresentationKind.STATUS_WITH_PASSKEY, status=status)
    with pytest.raises(VaxError):
        Presentation(kind=PresentationKind.BADGE_ONLY, badge=None)


def test_second_dose_due_math(paper_wallet):
    due, days = second_dose_due(paper_wallet, "2021-02-15")
    assert (due, days) == (False, 14)
    due, days = second_dose_due(paper_wallet, "2021-02-22")
    assert (due, days) == (True, 21)
    due, days = second_dose_due(paper_wallet, "2021-03-01", interval_days=40)
    assert not due


def test_second_dose_due_not_applicable(session, paper_wallet):
    badge2, status2 = session.second_dose(paper_wallet.badge,
                                          _dose(n=2, date="2021-02-22"))
    store_credentials(paper_wallet, badge2, status2)
    with pytest.raises(NotApplicableError):
        second_dose_due(paper_wallet, "2021-03-01")
    with pytest.raises(MissingCredentialError):
        second_dose_due(wallet_init_paper(), "2021-03-01")


def test_save_load_round_trip_paper(tmp_path, paper_wallet):
    path = tmp_path / "w.bin"
    save_wallet(paper_wallet, path, "pw")
    loaded = load_wallet(path, "pw")
    assert loaded.variant == "paper"
    assert loaded.badge.to_bytes() == paper_wallet.badge.to_bytes()
    assert loaded.status.to_bytes() == paper_wallet.status.to_bytes()
    assert loaded.passkey.to_bytes() == paper_wallet.passkey.to_bytes()
    assert loaded.coupon.to_bytes() == paper_wallet.coupon.to_bytes()


class _HalfWrittenFile:
    """A file whose first write stores half the data, then fails as a full
    disk would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "disk full (injected)")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _failing_writes(opener):
    def wrapped(file, mode="r", *args, **kwargs):
        fh = opener(file, mode, *args, **kwargs)
        return _HalfWrittenFile(fh) if "w" in mode else fh
    return wrapped


def test_failed_save_keeps_the_previous_wallet(tmp_path, paper_wallet, monkeypatch):
    """A write that fails part-way must not destroy the only copy of the
    passkey: the wallet saved before it still loads."""
    path = tmp_path / "w.bin"
    save_wallet(paper_wallet, path, "pw")
    with monkeypatch.context() as m:
        m.setattr(builtins, "open", _failing_writes(builtins.open))
        m.setattr(os, "fdopen", _failing_writes(os.fdopen))
        with pytest.raises(OSError):
            save_wallet(wallet_init_paper(), path, "pw")
    loaded = load_wallet(path, "pw")
    assert loaded.passkey == paper_wallet.passkey
    assert sorted(os.listdir(tmp_path)) == ["w.bin"]  # no temporary file left


def test_save_load_round_trip_app(tmp_path, app_wallet):
    path = tmp_path / "w.bin"
    save_wallet(app_wallet, path, "pw")
    loaded = load_wallet(path, "pw")
    assert loaded.variant == "app"
    assert loaded.verifying_key == app_wallet.verifying_key
    assert loaded.pii_tree.root == app_wallet.pii_tree.root
    assert loaded.pii_tree.leaves == app_wallet.pii_tree.leaves
    # the restored key still decrypts/signs as before
    p = present(loaded, PresentationKind.STATUS_WITH_DISCLOSURE,
                DisclosureConsent(granted=True, labels=("name",)))
    assert verify_disclosure(loaded.pii_tree.root, p.proof)


def test_load_wrong_passphrase(tmp_path, paper_wallet):
    path = tmp_path / "w.bin"
    save_wallet(paper_wallet, path, "right")
    with pytest.raises(AuthFailureError):
        load_wallet(path, "wrong")


def test_blobs_sealed_by_the_earlier_codec_still_open(tmp_path):
    """A key blob and an app wallet file written before the two shared one
    sealing codec open with their passphrase and hold what they held."""
    sealed = json.loads((Path(__file__).parent / "sealed_blobs.json").read_text())
    passphrase = sealed["passphrase"]
    handle = KeyHandle.unseal(bytes.fromhex(sealed["key_blob"]), passphrase)
    assert handle.verifying_key.hex() == sealed["key_verifying_key"]
    path = tmp_path / "w.bin"
    path.write_bytes(bytes.fromhex(sealed["app_wallet"]))
    loaded = load_wallet(path, passphrase)
    assert loaded.verifying_key.hex() == sealed["app_wallet_verifying_key"]
    assert loaded.pii_tree.root.hex() == sealed["app_wallet_tree_root"]
    assert loaded.badge.to_bytes().hex() == sealed["app_wallet_badge"]
    assert loaded.status.payload.binding.user_key == loaded.verifying_key


def test_load_corrupt_file(tmp_path, paper_wallet):
    path = tmp_path / "w.bin"
    save_wallet(paper_wallet, path, "pw")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(VaxError):
        load_wallet(path, "pw")


def test_wallet_file_is_opaque(tmp_path, paper_wallet):
    path = tmp_path / "w.bin"
    save_wallet(paper_wallet, path, "pw")
    raw = path.read_bytes()
    # neither credential bytes nor identity values appear in the clear
    assert paper_wallet.badge.to_bytes() not in raw
    assert b"Lee Holder" not in raw
    assert b"1970-01-02" not in raw


def _sealed_body(path, body: dict, passphrase: str) -> None:
    """A wallet file holding ``body``, sealed with the right passphrase."""
    blob = crypto.seal_with_passphrase(canonical.encode(body), passphrase, wallet._WALLET_INFO)
    path.write_bytes(blob)


@pytest.mark.parametrize("body", [
    {"variant": "app", "leaves": [[1, 2]]},  # was ValueError
    {"variant": "app", "leaves": 7},  # was TypeError
    {"variant": "app", "leaves": [["name", "Ann", 7]]},  # was bytes(7), seven zero bytes
    {"variant": "app", "key": 7},  # was TypeError
    {"variant": "app", "key": b"\x01" * 20},
    {"variant": "app", "purse": b""},
    {"leaves": []},
    [],
])
def test_a_malformed_wallet_body_is_refused(tmp_path, body):
    path = tmp_path / "w.bin"
    _sealed_body(path, body, "pw")
    with pytest.raises(CanonicalError):
        load_wallet(path, "pw")


def test_a_wallet_key_with_a_short_seed_is_refused(tmp_path):
    """The sealed key inside a wallet held a 63-byte seed: ``cryptography``
    raised ``ValueError`` through ``load_wallet``."""
    key = crypto.seal_with_passphrase(bytes(63), "pw", crypto._SEAL_INFO)
    path = tmp_path / "w.bin"
    _sealed_body(path, {"variant": "app", "key": key}, "pw")
    with pytest.raises(CanonicalError):
        load_wallet(path, "pw")
