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
from .merkle import DisclosureProof, PiiTree, build_pii_tree, prove_disclosure


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

    def to_wire(self) -> dict:
        wire = {"kind": self.kind.value}
        for name in _PART_TYPES:
            value = getattr(self, name)
            if value is not None:
                wire[name] = value.to_wire()
        return wire

    @classmethod
    def from_wire(cls, obj) -> "Presentation":
        kind = canonical.fields(obj, ("kind",), "presentation", tuple(_PART_TYPES))[0]
        try:
            kind = PresentationKind(kind)
        except ValueError:
            raise CanonicalError(f"unknown presentation kind {kind!r}") from None
        kwargs = {n: typ.from_wire(obj[n]) for n, typ in _PART_TYPES.items() if n in obj}
        return cls(kind=kind, **kwargs)


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
_STORED_TYPES = {"coupon": Coupon, "badge": Badge, "status": Status, "passkey": Passkey}


def _wallet_wire(state: WalletState, passphrase: str) -> dict:
    wire = {"variant": state.variant}
    for name in _STORED_TYPES:
        value = getattr(state, name)
        if value is not None:
            wire[name] = value.to_wire()
    if state.key is not None:
        wire["key"] = state.key.seal(passphrase)
    if state.pii_tree is not None:
        wire["leaves"] = [[l, v, s] for l, v, s in state.pii_tree.leaves]
    return wire


def _wallet_from_wire(obj: dict, passphrase: str) -> WalletState:
    variant, key, leaves = canonical.fields(
        obj, ("variant",), "wallet body", ("key", "leaves", *_STORED_TYPES)
    )[:3]
    tree = PiiTree.from_leaves(canonical.tuples(leaves)) if "leaves" in obj else None
    stored = {n: typ.from_wire(obj[n]) for n, typ in _STORED_TYPES.items() if n in obj}
    return WalletState(
        variant=variant,
        key=KeyHandle.unseal(key, passphrase) if "key" in obj else None,
        pii_tree=tree,
        **stored,
    )


def save_wallet(state: WalletState, path, passphrase: str) -> None:
    body = canonical.encode(_wallet_wire(state, passphrase))
    durable.replace(path, seal_with_passphrase(body, passphrase, _WALLET_INFO))


def load_wallet(path, passphrase: str) -> WalletState:
    with open(path, "rb") as fh:
        blob = fh.read()
    body = open_with_passphrase(blob, passphrase, _WALLET_INFO)
    return _wallet_from_wire(canonical.decode(body), passphrase)
