"""Venue-side verification: checks that answer a value for any input.

Venues verify signatures against a set of accepted issuer keys, check
binding consistency between what is shown together, and extract only the
vaccination level plus whatever fields the holder disclosed. Verification
never persists anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .credentials import (
    AppBinding,
    Badge,
    BadgeInfo,
    PasskeyHash,
    Status,
    VaccinationLevel,
)
from .crypto import VerifyingKey
from .errors import EmptyRequestError
from .merkle import verify_disclosure
from .wallet import Presentation, PresentationKind


def verify_badge(vk: VerifyingKey, badge) -> Optional[BadgeInfo]:
    """The badge's info when its signature verifies (the constructor
    checked the structure); None on any failure."""
    if not isinstance(badge, Badge) or not badge.verify(vk):
        return None
    return badge.info


def verify_status(vk: VerifyingKey, status) -> Optional[VaccinationLevel]:
    """None when the signature is bad, the level otherwise."""
    if not isinstance(status, Status) or not status.verify(vk):
        return None
    return status.payload.level


@dataclass(frozen=True)
class Verdict:
    level: VaccinationLevel
    disclosed: tuple = ()  # of (label, value) the holder proved


@dataclass(frozen=True)
class Reject:
    reason: str


def verify_presentation(keys, presentation, required_labels=()) -> object:
    """Full venue-door check; returns Verdict or Reject for any presentation.

    `keys` is one VerifyingKey or a sequence of accepted issuer keys
    (EmptyRequestError for none). For disclosure presentations every
    required label must be proven.
    """
    accepted = key_list(keys)
    if not isinstance(presentation, Presentation):
        return Reject("malformed")
    kind = presentation.kind

    if kind is PresentationKind.BADGE_ONLY:
        info = first_match(lambda vk: verify_badge(vk, presentation.badge), accepted)
        if info is None:
            return Reject("bad-signature")
        return Verdict(level=info.level)

    level = first_match(lambda vk: verify_status(vk, presentation.status), accepted)
    if level is None:
        return Reject("bad-signature")
    binding = presentation.status.payload.binding

    if kind is PresentationKind.STATUS_ONLY:
        return Verdict(level=level)

    if kind is PresentationKind.STATUS_WITH_PASSKEY:
        if not isinstance(binding, PasskeyHash):
            return Reject("variant-mismatch")
        if presentation.passkey.commitment() != binding.digest:
            return Reject("passkey-mismatch")
        return Verdict(level=level, disclosed=tuple(presentation.passkey.pii))

    # STATUS_WITH_DISCLOSURE
    if not isinstance(binding, AppBinding):
        return Reject("variant-mismatch")
    proof = presentation.proof
    if not verify_disclosure(binding.pii_root, proof):
        return Reject("bad-proof")
    shown = {label: value for label, value, _ in proof.disclosed}
    missing = [l for l in required_labels if l not in shown]
    if missing:
        return Reject(f"missing-labels:{','.join(sorted(missing))}")
    return Verdict(level=level, disclosed=tuple(sorted(shown.items())))


def key_list(keys) -> list:
    """The accepted issuer keys: one VerifyingKey or a non-empty sequence
    of them; EmptyRequestError for none."""
    if isinstance(keys, VerifyingKey):
        return [keys]
    out = list(keys)
    if not out:
        raise EmptyRequestError("no accepted issuer keys")
    return out


def first_match(fn, keys):
    """``fn(vk)`` for the first accepted key that gives a result, else None."""
    for vk in keys:
        result = fn(vk)
        if result is not None:
            return result
    return None

