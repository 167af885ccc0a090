"""Cross-venue linkage audit for the tests: what two venues could match.

A venue never persists what it is shown. ``VenueTranscript.record``
writes down exactly what one venue could have kept from one
presentation: the raw bytes plus every stable identifier in them.
``linkage_audit`` reports which pairs of transcripts share an
identifier's value, that is, which visits a pair of colluding venues
could tie to one holder.
"""

from dataclasses import dataclass

from vaxcred.credentials import AppBinding, Commitment, Passkey, PasskeyHash, TreeRoot
from vaxcred.crypto import TAG_PASSKEY, tagged_hash
from vaxcred.errors import EmptyRequestError
from vaxcred.wallet import Presentation


def passkey_fingerprint(passkey: Passkey) -> bytes:
    """A stable identifier of a whole passkey (never shown to venues)."""
    return tagged_hash(TAG_PASSKEY, passkey.to_bytes())


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
            idents["passkey"] = passkey_fingerprint(presentation.passkey).hex()
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
