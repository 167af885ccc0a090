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


def canonical_pii(entries) -> bytes:
    """Deterministic byte encoding of (label, value) pairs, sorted by label."""
    pairs = [(str(l), str(v)) for l, v in entries]
    if not pairs:
        raise EmptyRequestError("no identity fields")
    labels = [l for l, _ in pairs]
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError("duplicate identity label")
    pairs.sort(key=lambda kv: kv[0])
    return canonical.encode([[l, v] for l, v in pairs])


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
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CanonicalError("malformed binding")
    kind = obj["kind"]
    if kind in _DIGEST_BINDINGS:
        if set(obj) != {"digest", "kind"}:
            raise CanonicalError("malformed digest binding")
        return _DIGEST_BINDINGS[kind](obj["digest"])
    if kind == "app":
        if set(obj) != {"key", "kind", "root"}:
            raise CanonicalError("malformed app binding")
        return AppBinding(user_key=VerifyingKey.from_wire(obj["key"]), pii_root=obj["root"])
    raise CanonicalError(f"unknown binding kind {kind!r}")


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
        if not isinstance(obj, dict) or set(obj) != {"date", "lot", "num", "product", "site"}:
            raise CanonicalError("malformed dose record")
        return cls(
            product=obj["product"],
            lot=obj["lot"],
            date=obj["date"],
            dose_number=obj["num"],
            site_id=obj["site"],
        )


def parse_date(text: str) -> _dt.date:
    if not isinstance(text, str):
        raise CanonicalError("date must be ISO text")
    try:
        return _dt.date.fromisoformat(text)
    except ValueError as exc:
        raise CanonicalError(f"bad date {text!r}") from exc


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
        if not isinstance(obj, dict) or set(obj) != {"binding", "coupon", "doses"}:
            raise CanonicalError("malformed badge info")
        doses = obj["doses"]
        if not isinstance(doses, list):
            raise CanonicalError("malformed dose list")
        return cls(
            dose_history=tuple(DoseInfo.from_wire(d) for d in doses),
            coupon=Coupon.from_wire(obj["coupon"]),
            binding=binding_from_wire(obj["binding"]),
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
        if not isinstance(obj, dict):
            raise CanonicalError("malformed status payload")
        keys = set(obj)
        if keys not in ({"binding", "level"}, {"binding", "date", "level"}):
            raise CanonicalError("malformed status payload")
        level = obj["level"]
        if type(level) is not int or level not in (0, 1, 2):
            raise CanonicalError(f"bad vaccination level {level!r}")
        return cls(
            level=VaccinationLevel(level),
            binding=binding_from_wire(obj["binding"]),
            date=obj.get("date"),
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
        canonical_pii(self.pii)  # validates uniqueness, non-emptiness
        if list(self.pii) != sorted(self.pii, key=lambda kv: kv[0]):
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
        if not isinstance(obj, dict) or set(obj) != {"pii", "salt"}:
            raise CanonicalError("malformed passkey")
        return cls(pii=canonical.tuples(obj["pii"]), salt=obj["salt"])
