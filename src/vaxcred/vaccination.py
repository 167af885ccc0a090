"""Pharmacy-side vaccination flow and the issuer's signing endpoint.

A pharmacy admits a patient by checking the coupon signature and its
one-use state, administers the dose, and asks the badge issuer to sign a
(badge, status) pair. The issuer validates the request, advances the
coupon registry, and signs — atomically: the registry transition and the
signatures land together, and an identical retry (after a crash or a lost
response) returns the same signatures without a second transition.

The pharmacy never forwards raw identity fields to the issuer; only the
salted commitment or tree root leaves the counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import canonical
from .coupons import Coupon, verify_coupon
from .credentials import (
    AppBinding,
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    Passkey,
    PasskeyHash,
    Status,
    StatusPayload,
    TreeRoot,
    VaccinationLevel,
    parse_date,
    pii_commitment,
)
from .crypto import KeyHandle, VerifyingKey, new_salt, sha256
from .errors import (
    AlreadyUsedError,
    BadCouponError,
    BadSignatureError,
    CanonicalError,
    DismantledError,
    MismatchError,
    ProductMismatchError,
    UnknownCouponError,
    VaxError,
    WrongStateError,
)
from .registry import Registry, Stage


@dataclass(frozen=True)
class AdmitDecision:
    admitted: bool
    reason: str  # "ok" | "bad-signature" | "unknown-coupon" | "already-used" | "dismantled"

    OK = "ok"
    BAD_SIGNATURE = "bad-signature"
    UNKNOWN = "unknown-coupon"
    ALREADY_USED = "already-used"
    DISMANTLED = "dismantled"


def pharmacy_admit(vk_issuer: VerifyingKey, registry: Registry, coupon) -> AdmitDecision:
    """Total admission check for a first dose: never raises."""
    try:
        if not verify_coupon(vk_issuer, coupon):
            return AdmitDecision(False, AdmitDecision.BAD_SIGNATURE)
        state = registry.check(coupon.coupon_id)
    except UnknownCouponError:
        return AdmitDecision(False, AdmitDecision.UNKNOWN)
    except DismantledError:
        return AdmitDecision(False, AdmitDecision.DISMANTLED)
    except Exception:
        return AdmitDecision(False, AdmitDecision.BAD_SIGNATURE)
    if state.is_used:
        return AdmitDecision(False, AdmitDecision.ALREADY_USED)
    return AdmitDecision(True, AdmitDecision.OK)


def signing_request(badge_bytes: bytes, status_bytes: bytes):
    """(request bytes, digest) for one badge info and status payload, given
    as the exact bytes the issuer signs; pharmacy and issuer both derive
    the digest here. The digest identifies the request: a retry repeats it."""
    request = canonical.encode(
        {"badge": canonical.Encoded(badge_bytes), "status": canonical.Encoded(status_bytes)}
    )
    return request, sha256(request)


class BadgeIssuer:
    """Validates signing requests, advances the registry, signs badge+status.

    Signatures are deterministic, so replaying a request whose digest the
    registry already recorded returns byte-identical signatures — the
    recovery path after a crash between the registry write and the reply.
    """

    def __init__(self, handle: KeyHandle, registry: Registry, coupon_key=None):
        self._handle = handle
        self._registry = registry
        self._coupon_key = coupon_key if coupon_key is not None else handle.verifying_key
        self.received_requests = []  # raw request bytes, for privacy audits

    @property
    def verifying_key(self) -> VerifyingKey:
        return self._handle.verifying_key

    def sign_badge_request(self, badge_info: BadgeInfo, status_payload: StatusPayload):
        """Returns (badge signature, status signature) or raises a typed error.

        On any raise the registry is untouched (validation happens first,
        and the one registry call is itself atomic)."""
        badge_bytes, status_bytes = badge_info.to_bytes(), status_payload.to_bytes()
        return self._sign_request(
            badge_info, status_payload, badge_bytes, status_bytes,
            *signing_request(badge_bytes, status_bytes),
        )

    def _sign_request(self, badge_info: BadgeInfo, status_payload: StatusPayload,
                      badge_bytes: bytes, status_bytes: bytes,
                      request: bytes, digest: bytes):
        """sign_badge_request for a caller that already holds the bodies'
        bytes and their signing_request (request, digest), as the signing
        server does after checking a frame's digest."""
        self.received_requests.append(request)

        if not verify_coupon(self._coupon_key, badge_info.coupon):
            raise BadCouponError("coupon signature does not verify")
        _check_consistency(badge_info, status_payload)

        dose = len(badge_info.dose_history)
        self._registry.mark_used(
            badge_info.coupon.coupon_id,
            dose,
            date=badge_info.dose_history[-1].date,
            request_digest=digest,
        )
        return self._handle.sign(badge_bytes), self._handle.sign(status_bytes)


def _check_consistency(badge_info: BadgeInfo, status_payload: StatusPayload) -> None:
    doses = len(badge_info.dose_history)
    expected = VaccinationLevel(doses)
    if status_payload.level is not expected:
        raise MismatchError(
            f"status level {int(status_payload.level)} does not match {doses} dose(s)"
        )
    if status_payload.date != badge_info.dose_history[-1].date:
        raise MismatchError("status date does not match the latest dose")
    badge_binding = badge_info.binding
    status_binding = status_payload.binding
    if isinstance(badge_binding, Commitment):
        if not isinstance(status_binding, PasskeyHash):
            raise MismatchError("paper badge requires a passkey-hash status binding")
        if status_binding.digest != badge_binding.digest:
            raise MismatchError("status binding digest differs from badge commitment")
    else:  # a TreeRoot: the BadgeInfo constructor admits no other binding
        if not isinstance(status_binding, AppBinding):
            raise MismatchError("app badge requires an app status binding")
        if status_binding.pii_root != badge_binding.digest:
            raise MismatchError("status tree root differs from badge tree root")


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
    vk_badge: Optional[VerifyingKey] = None
    today: Optional[str] = None  # clamp for dose dates; None skips the check
    product_rule: str = "same-product"  # or "any"
    rng: object = None

    def __post_init__(self):
        if self.vk_badge is None:
            self.vk_badge = self.vk_issuer
        if self.product_rule not in ("same-product", "any"):
            raise CanonicalError(f"unknown product rule {self.product_rule!r}")

    def _check_date(self, dose: DoseInfo) -> None:
        if self.today is not None and parse_date(dose.date) > parse_date(self.today):
            raise CanonicalError(f"dose date {dose.date} is in the future")

    def _admit_or_raise(self, coupon: Coupon) -> None:
        decision = pharmacy_admit(self.vk_issuer, self.registry, coupon)
        if decision.admitted:
            return
        if decision.reason == AdmitDecision.ALREADY_USED:
            raise AlreadyUsedError(coupon.coupon_id.hex())
        if decision.reason == AdmitDecision.UNKNOWN:
            raise UnknownCouponError(coupon.coupon_id.hex())
        if decision.reason == AdmitDecision.DISMANTLED:
            raise DismantledError("registry has been dismantled")
        raise BadCouponError("coupon signature does not verify")

    def _sign(self, badge_info: BadgeInfo, status_payload: StatusPayload):
        """(badge, status) carrying the signer's two signatures."""
        sig_badge, sig_status = self.signer.sign_badge_request(badge_info, status_payload)
        return Badge(badge_info, sig_badge), Status(status_payload, sig_status)

    def issue_credentials_paper(self, coupon: Coupon, dose: DoseInfo, pii):
        """First dose, paper wallet: returns (badge, status, passkey)."""
        self._admit_or_raise(coupon)
        if dose.dose_number != 1:
            raise WrongStateError("first visit must record dose number 1")
        self._check_date(dose)
        pii = tuple(sorted(((str(l), str(v)) for l, v in pii), key=lambda kv: kv[0]))
        salt = new_salt(self.rng)
        commitment = pii_commitment(pii, salt)
        badge_info = BadgeInfo(
            dose_history=(dose,), coupon=coupon, binding=Commitment(commitment)
        )
        status_payload = StatusPayload(
            level=VaccinationLevel.DOSE1,
            binding=PasskeyHash(commitment),
            date=dose.date,
        )
        return (*self._sign(badge_info, status_payload), Passkey(pii=pii, salt=salt))

    def issue_credentials_app(self, coupon: Coupon, dose: DoseInfo, pii_root: bytes,
                              user_key: VerifyingKey):
        """First dose, app wallet: returns (badge, status). The pharmacy
        only ever sees the tree root, never the leaves."""
        self._admit_or_raise(coupon)
        if dose.dose_number != 1:
            raise WrongStateError("first visit must record dose number 1")
        self._check_date(dose)
        badge_info = BadgeInfo(
            dose_history=(dose,), coupon=coupon, binding=TreeRoot(pii_root)
        )
        status_payload = StatusPayload(
            level=VaccinationLevel.DOSE1,
            binding=AppBinding(user_key=user_key, pii_root=pii_root),
            date=dose.date,
        )
        return self._sign(badge_info, status_payload)

    def second_dose(self, badge: Badge, dose: DoseInfo, user_key=None):
        """Second dose against an existing badge: returns the extended
        badge plus a refreshed fully-vaccinated status."""
        from .verification import verify_badge  # local import, no cycle at load

        parsed = verify_badge(self.vk_badge, badge)
        if parsed is None:
            raise BadSignatureError("badge signature does not verify")
        if len(badge.info.dose_history) != 1:
            raise WrongStateError("badge already records a completed course")
        if dose.dose_number != 2:
            raise WrongStateError("second visit must record dose number 2")
        self._check_date(dose)
        first = badge.info.dose_history[0]
        if parse_date(dose.date) < parse_date(first.date):
            raise CanonicalError("second dose dated before the first")
        if self.product_rule == "same-product" and dose.product != first.product:
            raise ProductMismatchError(
                f"course started with {first.product!r}, got {dose.product!r}"
            )
        state = self.registry.check(badge.info.coupon.coupon_id)
        if state.stage is not Stage.DOSE1:
            raise WrongStateError(f"coupon is {state.stage.value}, expected dose1")

        badge_info = BadgeInfo(
            dose_history=badge.info.dose_history + (dose,),
            coupon=badge.info.coupon,
            binding=badge.info.binding,
        )
        if isinstance(badge.info.binding, Commitment):
            status_binding = PasskeyHash(badge.info.binding.digest)
        else:
            if user_key is None:
                raise VaxError("app wallet second dose needs the holder key")
            status_binding = AppBinding(
                user_key=user_key, pii_root=badge.info.binding.digest
            )
        status_payload = StatusPayload(
            level=VaccinationLevel.FULLY, binding=status_binding, date=dose.date
        )
        return self._sign(badge_info, status_payload)
