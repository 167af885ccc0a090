"""Venue-side verification: total checks that return values, never raise.

Venues verify signatures against a set of accepted issuer keys, check
binding consistency between what is shown together, and extract only the
vaccination level plus whatever fields the holder disclosed. Verification
never persists anything; the transcript recorder below exists for
linkability analysis in tests and stores exactly what a venue could have
written down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .credentials import (
    AppBinding,
    Badge,
    BadgeInfo,
    Commitment,
    Passkey,
    PasskeyHash,
    Status,
    TreeRoot,
    VaccinationLevel,
)
from .crypto import VerifyingKey
from .errors import EmptyRequestError, VariantError
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


def verify_passkey_binding(credential, passkey) -> bool:
    """Does this passkey open the commitment carried by a badge or status?

    Raises VariantError for app-variant bindings (there is no passkey);
    otherwise total."""
    if isinstance(credential, Badge):
        binding = credential.info.binding
    elif isinstance(credential, Status):
        binding = credential.payload.binding
    else:
        return False
    if isinstance(binding, (TreeRoot, AppBinding)):
        raise VariantError("app credentials have no passkey to check")
    return isinstance(passkey, Passkey) and passkey.commitment() == binding.digest


@dataclass(frozen=True)
class Verdict:
    level: VaccinationLevel
    disclosed: tuple = ()  # of (label, value) the holder proved


@dataclass(frozen=True)
class Reject:
    reason: str


def verify_presentation(keys, presentation, required_labels=()) -> object:
    """Full venue-door check; returns Verdict or Reject, never raises.

    `keys` is one VerifyingKey or a sequence of accepted issuer keys.
    For disclosure presentations every required label must be proven.
    """
    try:
        accepted = _key_list(keys)
        if not isinstance(presentation, Presentation):
            return Reject("malformed")
        kind = presentation.kind

        if kind is PresentationKind.BADGE_ONLY:
            info = _first(lambda vk: verify_badge(vk, presentation.badge), accepted)
            if info is None:
                return Reject("bad-signature")
            return Verdict(level=info.level)

        level = _first(lambda vk: verify_status(vk, presentation.status), accepted)
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
            return Verdict(
                level=level, disclosed=tuple(presentation.passkey.pii)
            )

        if kind is PresentationKind.STATUS_WITH_DISCLOSURE:
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
    except Exception:
        return Reject("malformed")


def _key_list(keys):
    if isinstance(keys, VerifyingKey):
        return [keys]
    out = list(keys)
    if not out:
        raise EmptyRequestError("no accepted issuer keys")
    return out


def _first(fn, keys):
    for vk in keys:
        result = fn(vk)
        if result is not None:
            return result
    return None


# -- linkability analysis (test harness; venues never persist) --------------


@dataclass(frozen=True)
class VenueTranscript:
    """What one venue could record from one presentation: the raw bytes
    plus every stable identifier extractable from them."""

    venue_id: str
    kind: str
    identifiers: tuple  # of (name, hex value)
    raw: bytes

    @classmethod
    def record(cls, venue_id: str, presentation: Presentation) -> "VenueTranscript":
        idents = {}
        if presentation.status is not None:
            binding = presentation.status.payload.binding
            if isinstance(binding, PasskeyHash):
                idents["commitment"] = binding.digest.hex()
            elif isinstance(binding, AppBinding):
                idents["pii-root"] = binding.pii_root.hex()
                idents["holder-key"] = binding.user_key.key_bytes.hex()
        if presentation.badge is not None:
            idents["coupon"] = presentation.badge.info.coupon.coupon_id.hex()
            binding = presentation.badge.info.binding
            if isinstance(binding, Commitment):
                idents["commitment"] = binding.digest.hex()
            elif isinstance(binding, TreeRoot):
                idents["pii-root"] = binding.digest.hex()
        if presentation.passkey is not None:
            idents["passkey"] = presentation.passkey.fingerprint().hex()
            idents["commitment"] = presentation.passkey.commitment().hex()
        if presentation.proof is not None:
            idents["pii-root"] = presentation.proof.root.hex()
            for label, value, _ in presentation.proof.disclosed:
                idents[f"field:{label}"] = value.encode("utf-8").hex()
        return cls(
            venue_id=venue_id,
            kind=presentation.kind.value,
            identifiers=tuple(sorted(idents.items())),
            raw=presentation.to_bytes(),
        )


@dataclass(frozen=True)
class LinkageReport:
    pairs: tuple  # of (i, j, shared identifier names)

    @property
    def any_linkable(self) -> bool:
        return bool(self.pairs)

    def linkable(self, i: int, j: int) -> bool:
        key = (min(i, j), max(i, j))
        return any((a, b) == key for a, b, _ in self.pairs)


def linkage_audit(transcripts) -> LinkageReport:
    """Which transcript pairs share a stable identifier value?"""
    transcripts = list(transcripts)
    if len(transcripts) < 2:
        raise EmptyRequestError("linkage audit needs at least two transcripts")
    pairs = []
    for i in range(len(transcripts)):
        for j in range(i + 1, len(transcripts)):
            a = dict(transcripts[i].identifiers)
            b = dict(transcripts[j].identifiers)
            shared = tuple(
                sorted(name for name in a.keys() & b.keys() if a[name] == b[name])
            )
            if shared:
                pairs.append((i, j, shared))
    return LinkageReport(pairs=tuple(pairs))
