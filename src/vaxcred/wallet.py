"""Holder-side wallet: credentials, consent-gated presentations, storage.

Two variants exist. A paper wallet holds printed artifacts — coupon,
badge, status, passkey — and can show the passkey only with explicit
consent. An app wallet additionally holds a keypair and the identity
hash tree, and discloses individual fields through tree proofs instead
of ever showing the passkey. A presentation contains exactly what the
holder consented to and nothing else.

Wallet files are sealed with a passphrase (``crypto.seal_with_passphrase``:
a version byte, a KDF salt, an AEAD nonce, and the sealed body).
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass
from typing import Optional

from . import canonical, config, durable
from .canonical import Field
from .credentials import (
    Badge,
    Commitment,
    Passkey,
    Status,
    TreeRoot,
    parse_date,
)
from .coupons import Coupon
from .crypto import KeyHandle, VerifyingKey, open_with_passphrase, seal_with_passphrase
from .errors import (
    CanonicalError,
    ConsentDeniedError,
    EmptyRequestError,
    MismatchError,
    MissingCredentialError,
    NotApplicableError,
    VariantError,
)
from .merkle import LEAF, DisclosureProof, PiiTree, build_pii_tree, prove_disclosure


class PresentationKind(enum.Enum):
    BADGE_ONLY = "badge-only"
    STATUS_ONLY = "status-only"
    STATUS_WITH_PASSKEY = "status+passkey"
    STATUS_WITH_DISCLOSURE = "status+disclosure"


@dataclass(frozen=True)
class DisclosureConsent:
    """Explicit holder consent; `labels` names the fields to disclose."""

    granted: bool
    labels: tuple = ()


_PART_TYPES = {"status": Status, "badge": Badge, "passkey": Passkey, "proof": DisclosureProof}
_PARTS_OF_KIND = {
    PresentationKind.BADGE_ONLY: ("badge",),
    PresentationKind.STATUS_ONLY: ("status",),
    PresentationKind.STATUS_WITH_PASSKEY: ("status", "passkey"),
    PresentationKind.STATUS_WITH_DISCLOSURE: ("status", "proof"),
}


@dataclass(frozen=True)
class Presentation(canonical.Wire):
    kind: PresentationKind
    status: Optional[Status] = None
    badge: Optional[Badge] = None
    passkey: Optional[Passkey] = None
    proof: Optional[DisclosureProof] = None

    TABLE = canonical.Table(
        "presentation",
        Field("badge", Badge.TABLE, optional=True),
        Field("kind", canonical.enum_of(canonical.TEXT, PresentationKind)),
        Field("passkey", Passkey.TABLE, optional=True),
        Field("proof", DisclosureProof.TABLE, optional=True),
        Field("status", Status.TABLE, optional=True),
    )

    def __post_init__(self):
        if not isinstance(self.kind, PresentationKind):
            raise CanonicalError(f"unknown presentation kind {self.kind!r}")
        expected = _PARTS_OF_KIND[self.kind]
        for name, typ in _PART_TYPES.items():
            value = getattr(self, name)
            if name in expected and value is None:
                raise MissingCredentialError(f"{self.kind.value} needs {name}")
            if name not in expected and value is not None:
                raise CanonicalError(f"{self.kind.value} must not carry {name}")
            if value is not None and not isinstance(value, typ):
                raise CanonicalError(f"presentation {name} must be a {typ.__name__}")


@dataclass
class WalletState:
    variant: str  # "paper" | "app"
    coupon: Optional[Coupon] = None
    badge: Optional[Badge] = None
    status: Optional[Status] = None
    passkey: Optional[Passkey] = None
    key: Optional[KeyHandle] = None
    pii_tree: Optional[PiiTree] = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.variant not in ("paper", "app"):
            raise VariantError(f"unknown wallet variant {self.variant!r}")
        if self.variant == "paper":
            if self.key is not None or self.pii_tree is not None:
                raise VariantError("paper wallet cannot hold a key or hash tree")
            if self.badge is not None and not isinstance(
                self.badge.info.binding, Commitment
            ):
                raise VariantError("paper wallet badge must use a commitment binding")
        else:
            if self.passkey is not None:
                raise VariantError("app wallet never holds a passkey")
            if self.key is None or self.pii_tree is None:
                raise VariantError("app wallet needs a key and a hash tree")
            if self.badge is not None:
                binding = self.badge.info.binding
                if not isinstance(binding, TreeRoot):
                    raise VariantError("app wallet badge must use a tree-root binding")
                if binding.digest != self.pii_tree.root:
                    raise MismatchError("badge tree root differs from wallet tree")
        if self.badge is not None and self.coupon is not None:
            if self.badge.info.coupon != self.coupon:
                raise MismatchError("badge was issued against a different coupon")

    @property
    def verifying_key(self) -> Optional[VerifyingKey]:
        return self.key.verifying_key if self.key is not None else None


def wallet_init_paper(coupon: Optional[Coupon] = None) -> WalletState:
    return WalletState(variant="paper", coupon=coupon)


def wallet_init_app(pii_entries, coupon: Optional[Coupon] = None,
                    rng=None) -> WalletState:
    """Fresh app wallet: generates the holder keypair and the hash tree."""
    from .crypto import generate_keypair

    handle, _ = generate_keypair(rng)
    tree = build_pii_tree(pii_entries, rng=rng)
    return WalletState(variant="app", coupon=coupon, key=handle, pii_tree=tree)


def store_credentials(state: WalletState, badge: Badge, status: Status,
                      passkey: Optional[Passkey] = None) -> None:
    """Accept freshly issued artifacts into the wallet (first or second dose)."""
    state.badge = badge
    state.status = status
    if state.variant == "paper":
        if passkey is None and state.passkey is None:
            raise MissingCredentialError("paper wallet needs its passkey")
        if passkey is not None:
            if passkey.commitment() != badge.info.binding.digest:
                raise MismatchError("passkey does not open the badge commitment")
            state.passkey = passkey
    elif passkey is not None:
        raise VariantError("app wallet never holds a passkey")
    state.validate()


def present(state: WalletState, kind: PresentationKind,
            consent: Optional[DisclosureConsent] = None) -> Presentation:
    """Build a presentation containing exactly the consented material."""
    if kind is PresentationKind.BADGE_ONLY:
        if state.badge is None:
            raise MissingCredentialError("no badge in wallet")
        return Presentation(kind=kind, badge=state.badge)
    if state.status is None:
        raise MissingCredentialError("no status in wallet")
    if kind is PresentationKind.STATUS_ONLY:
        return Presentation(kind=kind, status=state.status)
    if kind is PresentationKind.STATUS_WITH_PASSKEY:
        if state.variant != "paper":
            raise VariantError("passkey presentations are paper-wallet only")
        if state.passkey is None:
            raise MissingCredentialError("no passkey in wallet")
        if consent is None or not consent.granted:
            raise ConsentDeniedError("holder did not consent to show the passkey")
        return Presentation(kind=kind, status=state.status, passkey=state.passkey)
    if kind is PresentationKind.STATUS_WITH_DISCLOSURE:
        if state.variant != "app":
            raise VariantError("tree disclosures are app-wallet only")
        if consent is None or not consent.granted:
            raise ConsentDeniedError("holder did not consent to disclose fields")
        if not consent.labels:
            raise EmptyRequestError("consent names no fields")
        proof = prove_disclosure(state.pii_tree, consent.labels)
        return Presentation(kind=kind, status=state.status, proof=proof)
    raise CanonicalError(f"unknown presentation kind {kind!r}")


def second_dose_due(state: WalletState, today, interval_days: int = config.DOSE_INTERVAL_DAYS):
    """(due?, days since dose 1). Raises if the course is complete or empty."""
    if state.badge is None:
        raise MissingCredentialError("no badge in wallet")
    history = state.badge.info.dose_history
    if len(history) != 1:
        raise NotApplicableError("vaccination course already complete")
    if not isinstance(today, _dt.date):
        today = parse_date(today)
    days = (today - parse_date(history[0].date)).days
    return days >= interval_days, days


# -- persistence -------------------------------------------------------------

_WALLET_INFO = b"vaxcred wallet v1"
# the sealed body: (badge, coupon, sealed key, tree leaves, passkey, status, variant)
_WALLET_BODY = canonical.Table(
    "wallet body",
    Field("badge", Badge.TABLE, optional=True),
    Field("coupon", Coupon.TABLE, optional=True),
    Field("key", canonical.BYTES, optional=True),
    Field("leaves", canonical.list_of(LEAF), optional=True),
    Field("passkey", Passkey.TABLE, optional=True),
    Field("status", Status.TABLE, optional=True),
    Field("variant", canonical.TEXT),
)


def _wallet_body(state: WalletState, passphrase: str) -> bytes:
    key = state.key.seal(passphrase) if state.key is not None else None
    leaves = state.pii_tree.leaves if state.pii_tree is not None else None
    return _WALLET_BODY.write((state.badge, state.coupon, key, leaves, state.passkey,
                               state.status, state.variant))


def _wallet_from_body(body: bytes, passphrase: str) -> WalletState:
    badge, coupon, key, leaves, passkey, status, variant = _WALLET_BODY.read(body)
    return WalletState(
        variant=variant, coupon=coupon, badge=badge, status=status, passkey=passkey,
        key=KeyHandle.unseal(key, passphrase) if key is not None else None,
        pii_tree=PiiTree.from_leaves(leaves) if leaves is not None else None,
    )


def save_wallet(state: WalletState, path, passphrase: str) -> None:
    body = _wallet_body(state, passphrase)
    durable.replace(path, seal_with_passphrase(body, passphrase, _WALLET_INFO))


def load_wallet(path, passphrase: str) -> WalletState:
    with open(path, "rb") as fh:
        blob = fh.read()
    body = open_with_passphrase(blob, passphrase, _WALLET_INFO)
    return _wallet_from_body(body, passphrase)
