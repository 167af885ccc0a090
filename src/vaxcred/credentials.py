"""Credential data model: badges, status attestations, passkeys.

A badge records the full dose history plus a binding that ties it to its
holder without exposing anything personal: either a salted commitment to
the holder's identity fields (paper wallets) or the root of their hash
tree (app wallets). A status is the minimal thing shown at a venue door:
vaccination level plus the same binding material. The passkey is the
paper holder's opening of the commitment — identity fields and salt —
shown only where the holder consents to be identified.
"""

from __future__ import annotations

import datetime as _dt
import enum
from dataclasses import dataclass
from typing import Optional

from . import canonical
from .coupons import Coupon
from .crypto import (
    DIGEST_LEN,
    SALT_LEN,
    TAG_PASSKEY,
    SignedBody,
    SignedEnvelope,
    VerifyingKey,
    salted_hash,
    tagged_hash,
)
from .errors import CanonicalError, DuplicateLabelError, EmptyRequestError, MismatchError


class VaccinationLevel(enum.IntEnum):
    NOT_VACCINATED = 0
    DOSE1 = 1
    FULLY = 2


def pii_pairs(entries) -> tuple:
    """The one rule for identity fields: (label, value) text pairs sorted
    by label. EmptyRequestError for none, DuplicateLabelError when a
    label repeats."""
    pairs = tuple(sorted(((str(l), str(v)) for l, v in entries), key=lambda kv: kv[0]))
    if not pairs:
        raise EmptyRequestError("no identity fields")
    if any(a[0] == b[0] for a, b in zip(pairs, pairs[1:])):
        raise DuplicateLabelError("duplicate identity label")
    return pairs


def canonical_pii(entries) -> bytes:
    """Deterministic byte encoding of (label, value) pairs, sorted by label."""
    return canonical.encode([[l, v] for l, v in pii_pairs(entries)])


def pii_commitment(entries, salt: bytes) -> bytes:
    """Salted commitment over the canonical identity encoding."""
    return salted_hash(canonical_pii(entries), salt)


# -- bindings -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _DigestBinding:
    digest: bytes

    def __post_init__(self):
        if not isinstance(self.digest, bytes) or len(self.digest) != DIGEST_LEN:
            raise CanonicalError("bad binding digest")


@dataclass(frozen=True, slots=True)
class Commitment(_DigestBinding):
    """Badge side, paper variant: salted hash of the holder's identity."""

    kind = "commitment"


@dataclass(frozen=True, slots=True)
class TreeRoot(_DigestBinding):
    """Badge side, app variant: root of the holder's identity hash tree."""

    kind = "tree-root"


@dataclass(frozen=True, slots=True)
class PasskeyHash(_DigestBinding):
    """Status side, paper variant: equals the badge commitment digest."""

    kind = "passkey-hash"


@dataclass(frozen=True, slots=True)
class AppBinding:
    """Status side, app variant: holder public key plus tree root."""

    user_key: VerifyingKey
    pii_root: bytes

    kind = "app"

    def __post_init__(self):
        if not isinstance(self.user_key, VerifyingKey):
            raise CanonicalError("app binding needs a verifying key")
        if not isinstance(self.pii_root, bytes) or len(self.pii_root) != DIGEST_LEN:
            raise CanonicalError("bad binding root")


_DIGEST_BINDINGS = {
    "commitment": Commitment,
    "tree-root": TreeRoot,
    "passkey-hash": PasskeyHash,
}


def binding_to_wire(binding) -> dict:
    if isinstance(binding, _DigestBinding):
        return {"digest": binding.digest, "kind": binding.kind}
    if isinstance(binding, AppBinding):
        return {
            "key": binding.user_key.to_wire(),
            "kind": binding.kind,
            "root": binding.pii_root,
        }
    raise CanonicalError(f"unknown binding type {type(binding).__name__}")


def binding_from_wire(obj) -> object:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "app":
        key, _, root = canonical.fields(obj, ("key", "kind", "root"), "app binding")
        return AppBinding(user_key=VerifyingKey.from_wire(key), pii_root=root)
    if not isinstance(kind, str) or kind not in _DIGEST_BINDINGS:
        raise CanonicalError(f"unknown binding kind {kind!r}")
    digest, _ = canonical.fields(obj, ("digest", "kind"), "digest binding")
    return _DIGEST_BINDINGS[kind](digest)


# -- dose records ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DoseInfo:
    product: str
    lot: str
    date: str  # ISO YYYY-MM-DD
    dose_number: int
    site_id: str

    def __post_init__(self):
        for name in ("product", "lot", "site_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise CanonicalError(f"{name} must be non-empty text")
        if type(self.dose_number) is not int or self.dose_number not in (1, 2):
            raise CanonicalError(f"dose_number must be 1 or 2, got {self.dose_number}")
        parse_date(self.date)

    def to_wire(self) -> dict:
        return {
            "date": self.date,
            "lot": self.lot,
            "num": self.dose_number,
            "product": self.product,
            "site": self.site_id,
        }

    @classmethod
    def from_wire(cls, obj) -> "DoseInfo":
        date, lot, num, product, site = canonical.fields(
            obj, ("date", "lot", "num", "product", "site"), "dose record"
        )
        return cls(
            product=product,
            lot=lot,
            date=date,
            dose_number=num,
            site_id=site,
        )


def parse_date(text: str) -> _dt.date:
    """The day a ``YYYY-MM-DD`` text names. That is a date's one spelling:
    from 3.11 ``fromisoformat`` also reads ``20210301`` and ``2021-W09-1``."""
    try:
        day = _dt.date.fromisoformat(text)
    except (TypeError, ValueError) as exc:  # TypeError: not text
        raise CanonicalError(f"bad date {text!r}") from exc
    if day.isoformat() != text:
        raise CanonicalError(f"bad date {text!r}")
    return day


# -- badge -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BadgeInfo(SignedBody):
    dose_history: tuple  # of DoseInfo, in administration order
    coupon: Coupon
    binding: object  # Commitment | TreeRoot

    def __post_init__(self):
        if not isinstance(self.dose_history, tuple) or not all(
            isinstance(d, DoseInfo) for d in self.dose_history
        ):
            raise CanonicalError("dose history must be a tuple of dose records")
        if not isinstance(self.coupon, Coupon):
            raise CanonicalError("badge coupon must be a Coupon")
        if not self.dose_history:
            raise CanonicalError("badge needs at least one dose")
        if len(self.dose_history) > 2:
            raise CanonicalError("badge supports at most two doses")
        numbers = [d.dose_number for d in self.dose_history]
        if numbers != list(range(1, len(numbers) + 1)):
            raise CanonicalError(f"dose numbers must be sequential, got {numbers}")
        if len(self.dose_history) == 2:
            first, second = self.dose_history
            if parse_date(second.date) < parse_date(first.date):
                raise CanonicalError("second dose dated before the first")
        if not isinstance(self.binding, (Commitment, TreeRoot)):
            raise CanonicalError("badge binding must be a commitment or tree root")

    @property
    def level(self) -> VaccinationLevel:
        return VaccinationLevel(len(self.dose_history))

    def to_wire(self) -> dict:
        return {
            "binding": binding_to_wire(self.binding),
            "coupon": self.coupon.to_wire(),
            "doses": [d.to_wire() for d in self.dose_history],
        }

    @classmethod
    def from_wire(cls, obj) -> "BadgeInfo":
        binding, coupon, doses = canonical.fields(obj, ("binding", "coupon", "doses"), "badge info")
        if not isinstance(doses, list):
            raise CanonicalError("malformed dose list")
        return cls(
            dose_history=tuple(DoseInfo.from_wire(d) for d in doses),
            coupon=Coupon.from_wire(coupon),
            binding=binding_from_wire(binding),
        )


@dataclass(frozen=True, slots=True)
class Badge(SignedEnvelope):
    BODY = "info"
    BODY_TYPE = BadgeInfo

    info: BadgeInfo
    signature: bytes


# -- status ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StatusPayload(SignedBody):
    level: VaccinationLevel
    binding: object  # PasskeyHash | AppBinding
    date: Optional[str] = None  # date of the most recent dose, if any

    def __post_init__(self):
        if not isinstance(self.level, VaccinationLevel):
            raise CanonicalError("level must be a VaccinationLevel")
        if not isinstance(self.binding, (PasskeyHash, AppBinding)):
            raise CanonicalError("status binding must be passkey hash or app binding")
        if self.date is not None:
            parse_date(self.date)
        if self.level is VaccinationLevel.NOT_VACCINATED and self.date is not None:
            raise CanonicalError("unvaccinated status cannot carry a dose date")

    def to_wire(self) -> dict:
        wire = {"binding": binding_to_wire(self.binding), "level": int(self.level)}
        if self.date is not None:
            wire["date"] = self.date
        return wire

    @classmethod
    def from_wire(cls, obj) -> "StatusPayload":
        binding, level, date = canonical.fields(
            obj, ("binding", "level"), "status payload", ("date",)
        )
        if type(level) is not int or level not in (0, 1, 2):
            raise CanonicalError(f"bad vaccination level {level!r}")
        return cls(
            level=VaccinationLevel(level),
            binding=binding_from_wire(binding),
            date=date,
        )


@dataclass(frozen=True, slots=True)
class Status(SignedEnvelope):
    BODY_TYPE = StatusPayload

    payload: StatusPayload
    signature: bytes


def status_for(info: BadgeInfo, user_key: Optional[VerifyingKey] = None) -> StatusPayload:
    """The one status that goes with a badge: its level, the date of its
    latest dose, and the holder binding. A paper badge's commitment
    becomes the passkey hash; an app badge's tree root travels with the
    holder key, so an app badge without ``user_key`` has no status."""
    if isinstance(info.binding, Commitment):
        binding = PasskeyHash(info.binding.digest)
    elif user_key is None:
        raise MismatchError("an app badge's status needs the holder key")
    else:
        binding = AppBinding(user_key=user_key, pii_root=info.binding.digest)
    return StatusPayload(level=info.level, binding=binding, date=info.dose_history[-1].date)


# -- passkey ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Passkey(canonical.Wire):
    """Opening of a paper badge's commitment: identity fields plus salt."""

    pii: tuple  # of (label, value), sorted by label
    salt: bytes

    def __post_init__(self):
        if not isinstance(self.salt, bytes) or len(self.salt) != SALT_LEN:
            raise CanonicalError("bad passkey salt")
        if not isinstance(self.pii, tuple) or not all(
            isinstance(kv, tuple) and len(kv) == 2
            and isinstance(kv[0], str) and isinstance(kv[1], str)
            for kv in self.pii
        ):
            raise CanonicalError("passkey fields must be (label, value) text pairs")
        if pii_pairs(self.pii) != self.pii:
            raise CanonicalError("passkey fields must be sorted by label")

    def commitment(self) -> bytes:
        return pii_commitment(self.pii, self.salt)

    def fingerprint(self) -> bytes:
        """Stable identifier for audit transcripts (not shown to venues)."""
        return tagged_hash(TAG_PASSKEY, self.to_bytes())

    def to_wire(self) -> dict:
        return {"pii": [[l, v] for l, v in self.pii], "salt": self.salt}

    @classmethod
    def from_wire(cls, obj) -> "Passkey":
        pii, salt = canonical.fields(obj, ("pii", "salt"), "passkey")
        return cls(pii=canonical.tuples(pii), salt=salt)
