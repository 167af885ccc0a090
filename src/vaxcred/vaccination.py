"""Pharmacy-side vaccination flow and the issuer's signing endpoint.

A pharmacy admits a patient by checking the coupon and its one-use state,
administers the dose, and asks the badge issuer to sign a (badge, status)
pair. The issuer validates the request, advances the coupon registry, and
signs — atomically: the registry transition and the signatures land
together, and an identical retry (after a crash or a lost response)
returns the same signatures without a second transition.

Counter and issuer accept a coupon whose id and signature digest the
registry holds without an Ed25519 verify, so genuineness rests on the
registry log, already trusted for one use. Any other coupon is verified
first, so a forgery is a bad coupon whatever the registry says of its id.
A second dose's badge is admitted alike: at dose 1 the issuer records a
digest of the badge it signed, signature included, so a match shows the
presenter holds that exact badge. Any other badge is verified.

The pharmacy never forwards raw identity fields to the issuer; only the
salted commitment or tree root leaves the counter.

Each course rule has one home. BadgeInfo states the shape of a course:
one or two doses, numbered 1..n, the second not dated before the first.
The issuer states the signing policy, as it alone makes the signature
and a remote counter may skip any check: every dose is of the first
dose's product, none is dated after the issuer's own clock, and dose 1
is the one it signed. The registry states the one-use stages, so a
completed badge is wrong-state. The counter checks only admission: the
coupon or badge shown, and its stage.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
from dataclasses import dataclass
from typing import Optional

from . import canonical
from .canonical import Field
from .coupons import Coupon, verify_coupon
from .credentials import (
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    Passkey,
    Status,
    StatusPayload,
    TreeRoot,
    parse_date,
    pii_commitment,
    pii_pairs,
    status_for,
)
from .crypto import TAG_BADGE_SIG, KeyHandle, VerifyingKey, new_salt, sha256, tagged_hash
from .errors import (
    AlreadyUsedError,
    BadCouponError,
    BadSignatureError,
    CanonicalError,
    InvalidTransitionError,
    MismatchError,
    ProductMismatchError,
    WrongStateError,
)
from .registry import CouponState, Registry, Stage


def _genuine_state(vk_issuer: VerifyingKey, registry: Registry, coupon) -> Optional[CouponState]:
    """The state of a coupon the registry holds exactly. For any other,
    None once it verifies under ``vk_issuer``, else BadCouponError."""
    if isinstance(coupon, Coupon):
        state = registry.match(coupon.coupon_id, coupon.sig_digest)
        if state is not None:
            return state
    if not verify_coupon(vk_issuer, coupon):
        raise BadCouponError("coupon signature does not verify")
    return None


def badge_digest(signature: bytes, info_bytes: bytes) -> bytes:
    """What the registry records of a badge signed at dose 1. The signature
    is always 64 bytes, so signature then info splits one way only."""
    return tagged_hash(TAG_BADGE_SIG, signature, info_bytes)


def check_admission(vk_issuer: VerifyingKey, registry: Registry, coupon) -> None:
    """Raise the typed error that bars a first dose on ``coupon``:
    BadCouponError, UnknownCouponError, DismantledError or AlreadyUsedError.
    The error's code is the refusal, as ``pharmacy admit`` prints it."""
    state = _genuine_state(vk_issuer, registry, coupon) or registry.check(coupon.coupon_id)
    if state.is_used:
        raise AlreadyUsedError(coupon.coupon_id.hex())


# what a signing request's digest covers: (badge info, status payload)
_REQUEST_BODY = canonical.Table("signing request body",
                                Field("badge", canonical.signed(BadgeInfo.TABLE)),
                                Field("status", canonical.signed(StatusPayload.TABLE)))


def signing_request(badge_bytes: bytes, status_bytes: bytes):
    """(request bytes, digest) for one badge info and status payload, given
    as the exact bytes the issuer signs; pharmacy and issuer both derive
    the digest here. The digest identifies the request: a retry repeats it."""
    request = _REQUEST_BODY.write((badge_bytes, status_bytes))
    return request, sha256(request)


class BadgeIssuer:
    """Validates signing requests, advances the registry, signs badge+status.

    Signatures are deterministic, so replaying a request whose digest the
    registry already recorded returns byte-identical signatures — the
    recovery path after a crash between the registry write and the reply.
    """

    def __init__(self, handle: KeyHandle, registry: Registry):
        self._handle = handle
        self._registry = registry
        self.received_requests = []  # raw request bytes, for privacy audits

    @property
    def verifying_key(self) -> VerifyingKey:
        return self._handle.verifying_key

    def sign_badge_request(self, badge_info: BadgeInfo, status_payload: StatusPayload,
                           digest: Optional[bytes] = None):
        """Returns (badge signature, status signature) or raises a typed error:
        the status must be the badge's, the coupon genuine, the course of one
        product, no dose dated in the future, and a second dose's first the
        badge signed at dose 1 (MismatchError).

        ``digest`` is the one a signing frame carries; a request whose
        derived digest differs is refused before anything is recorded.
        On any raise the registry is untouched (validation happens first,
        and the one registry call is itself atomic)."""
        badge_bytes, status_bytes = badge_info.to_bytes(), status_payload.to_bytes()
        request, derived = signing_request(badge_bytes, status_bytes)
        if digest is not None and digest != derived:
            raise CanonicalError("request digest mismatch")
        self.received_requests.append(request)

        _genuine_state(self.verifying_key, self._registry, badge_info.coupon)
        user_key = getattr(status_payload.binding, "user_key", None)
        if status_payload != status_for(badge_info, user_key):
            raise MismatchError("status does not match the badge")
        first, last = badge_info.dose_history[0], badge_info.dose_history[-1]
        if last.product != first.product:  # BadgeInfo allows two doses at most
            raise ProductMismatchError(
                f"course started with {first.product!r}, got {last.product!r}"
            )
        # BadgeInfo orders the dates, so the last dose is the latest. UTC plus
        # a day, as a counter's local date can lead UTC by up to 14 h.
        utc_today = _dt.datetime.now(_dt.timezone.utc).date()
        if parse_date(last.date) > utc_today + _dt.timedelta(days=1):
            raise CanonicalError(f"dose date {last.date} is in the future")
        coupon_id = badge_info.coupon.coupon_id
        if len(badge_info.dose_history) == 2:  # signing is deterministic: dose 1 signs alike
            dose1 = BadgeInfo((first,), badge_info.coupon, badge_info.binding).to_bytes()
            if self._registry.match_badge(
                    coupon_id, badge_digest(self._handle.sign(dose1), dose1)) is None:
                if self._registry.check(coupon_id).stage is Stage.UNUSED:
                    raise InvalidTransitionError("second dose before first")
                raise MismatchError("dose 1 is not the badge signed for this coupon")

        badge_sig = self._handle.sign(badge_bytes)  # deterministic: a retry signs alike
        self._registry.mark_used(
            coupon_id,
            len(badge_info.dose_history),
            date=last.date,
            request_digest=derived,
            badge_digest=badge_digest(badge_sig, badge_bytes),
        )
        return badge_sig, self._handle.sign(status_bytes)


@dataclass
class PharmacySession:
    """One pharmacy counter: verifies coupons locally, signs remotely.

    `signer` is anything with sign_badge_request(badge_info, status) ->
    (sig, sig): an in-process BadgeIssuer or a wire client. Identity
    fields are dropped as soon as the commitment is computed.
    """

    vk_issuer: VerifyingKey
    registry: Registry
    signer: object
    rng: object = None

    def _sign(self, badge_info: BadgeInfo, user_key: Optional[VerifyingKey] = None):
        """(badge, status) for ``badge_info`` and the status that goes with
        it, carrying the signer's two signatures."""
        status_payload = status_for(badge_info, user_key)
        sig_badge, sig_status = self.signer.sign_badge_request(badge_info, status_payload)
        return Badge(badge_info, sig_badge), Status(status_payload, sig_status)

    def issue_credentials_paper(self, coupon: Coupon, dose: DoseInfo, pii):
        """First dose, paper wallet: returns (badge, status, passkey)."""
        check_admission(self.vk_issuer, self.registry, coupon)
        pii = pii_pairs(pii)
        salt = new_salt(self.rng)
        commitment = Commitment(pii_commitment(pii, salt))
        badge_info = BadgeInfo(dose_history=(dose,), coupon=coupon, binding=commitment)
        return (*self._sign(badge_info), Passkey(pii=pii, salt=salt))

    def issue_credentials_app(self, coupon: Coupon, dose: DoseInfo, pii_root: bytes,
                              user_key: VerifyingKey):
        """First dose, app wallet: returns (badge, status). The pharmacy
        only ever sees the tree root, never the leaves."""
        check_admission(self.vk_issuer, self.registry, coupon)
        badge_info = BadgeInfo(dose_history=(dose,), coupon=coupon, binding=TreeRoot(pii_root))
        return self._sign(badge_info, user_key)

    def second_dose(self, badge: Badge, dose: DoseInfo, user_key=None):
        """Second dose against an existing badge: returns the extended
        badge plus a refreshed fully-vaccinated status. An app badge
        needs the holder key for its status."""
        from .verification import verify_badge  # local import, no cycle at load

        state = None  # the registry's, when it holds this badge's digest
        with contextlib.suppress(CanonicalError):  # no encoding: the verify refuses it
            if isinstance(badge, Badge):
                digest = badge_digest(badge.signature, badge.info.to_bytes())
                state = self.registry.match_badge(badge.info.coupon.coupon_id, digest)
        if state is None and verify_badge(self.vk_issuer, badge) is None:
            raise BadSignatureError("badge signature does not verify")
        state = state or self.registry.check(badge.info.coupon.coupon_id)
        if state.stage is not Stage.DOSE1:
            raise WrongStateError(f"coupon is {state.stage.value}, expected dose1")

        badge_info = BadgeInfo(
            dose_history=badge.info.dose_history + (dose,),
            coupon=badge.info.coupon,
            binding=badge.info.binding,
        )
        return self._sign(badge_info, user_key)
