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
from .canonical import Field
from .coupons import Coupon
from .crypto import (
    DIGEST_LEN,
    SALT_LEN,
    SignedBody,
    SignedEnvelope,
    VerifyingKey,
    salted_hash,
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


# identity fields on the wire: (label, value) text pairs, sorted by label
PII = canonical.list_of(canonical.tuple_of(canonical.TEXT, canonical.TEXT))


def pii_commitment(entries, salt: bytes) -> bytes:
    """Salted commitment over the canonical identity encoding."""
    return salted_hash(PII.write(pii_pairs(entries)), salt)


# -- bindings -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _DigestBinding:
    digest: bytes


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


_DIGEST_BINDINGS = {cls.kind: cls for cls in (Commitment, TreeRoot, PasskeyHash)}


def _binding(digest, user_key, kind, pii_root):
    """The binding of ``kind``, from the fields that kind has and no other."""
    if kind == "app" and digest is None and user_key is not None and pii_root is not None:
        return AppBinding(user_key, pii_root)
    if kind in _DIGEST_BINDINGS and digest is not None and user_key is None and pii_root is None:
        return _DIGEST_BINDINGS[kind](digest)
    raise CanonicalError(f"malformed binding of kind {kind!r}")


# the four bindings, one union keyed by ``kind``
BINDING = canonical.Table(
    "binding",
    Field("digest", canonical.fixed(DIGEST_LEN), optional=True),
    Field("key", VerifyingKey.TABLE, "user_key", optional=True),
    Field("kind", canonical.TEXT),
    Field("root", canonical.fixed(DIGEST_LEN), "pii_root", optional=True),
    build=_binding,
)


# -- dose records ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DoseInfo(canonical.Wire):
    product: str
    lot: str
    date: str  # ISO YYYY-MM-DD
    dose_number: int
    site_id: str

    TABLE = canonical.Table(
        "dose record",
        Field("date", canonical.TEXT),
        Field("lot", canonical.TEXT),
        Field("num", canonical.UINT, "dose_number"),
        Field("product", canonical.TEXT),
        Field("site", canonical.TEXT, "site_id"),
    )

    def __post_init__(self):
        for name in ("product", "lot", "site_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise CanonicalError(f"{name} must be non-empty text")
        if type(self.dose_number) is not int or self.dose_number not in (1, 2):
            raise CanonicalError(f"dose_number must be 1 or 2, got {self.dose_number}")
        parse_date(self.date)


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

    TABLE = canonical.Table(
        "badge info",
        Field("binding", BINDING),
        Field("coupon", Coupon.TABLE),
        Field("doses", canonical.list_of(DoseInfo.TABLE), "dose_history"),
    )

    def __post_init__(self):
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

    TABLE = canonical.Table(
        "status payload",
        Field("binding", BINDING),
        Field("date", canonical.TEXT, optional=True),
        Field("level", canonical.enum_of(canonical.UINT, VaccinationLevel)),
    )

    def __post_init__(self):
        if not isinstance(self.level, VaccinationLevel):
            raise CanonicalError("level must be a VaccinationLevel")
        if not isinstance(self.binding, (PasskeyHash, AppBinding)):
            raise CanonicalError("status binding must be passkey hash or app binding")
        if self.date is not None:
            parse_date(self.date)
        if self.level is VaccinationLevel.NOT_VACCINATED and self.date is not None:
            raise CanonicalError("unvaccinated status cannot carry a dose date")


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

    TABLE = canonical.Table(
        "passkey",
        Field("pii", PII),
        Field("salt", canonical.fixed(SALT_LEN)),
    )

    def __post_init__(self):
        if not isinstance(self.pii, tuple) or not all(
            isinstance(kv, tuple) and len(kv) == 2
            and isinstance(kv[0], str) and isinstance(kv[1], str)
            for kv in self.pii
        ):
            raise CanonicalError("passkey fields must be (label, value) text pairs")
        if pii_pairs(self.pii) != self.pii:
            raise CanonicalError("passkey fields must be sorted by label")

    def commitment(self) -> bytes:
        return salted_hash(PII.write(self.pii), self.salt)  # pii is sorted: see above
