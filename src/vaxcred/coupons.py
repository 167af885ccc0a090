"""Signed eligibility coupons and their distribution.

A coupon is a small signed payload (index, zip code, job type). It is
bearer-style: anyone holding it can attempt redemption, and the issuer's
registry enforces one-use semantics. Distributors hand coupons out in
index order against eligibility records; they never need the issuer key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from . import canonical
from .crypto import (
    TAG_COUPON_SIG,
    KeyHandle,
    SignedBody,
    SignedEnvelope,
    VerifyingKey,
    sha256,
    tagged_hash,
)
from .errors import (
    BatchExhaustedError,
    CanonicalError,
    InvalidJobTypeError,
    InvalidZipError,
    MismatchError,
    NotEligibleError,
)
from .config import DEFAULT_JOB_TYPES

_ZIP_RE = re.compile(r"[0-9]{5}")
_MAX_INDEX = 2 ** 64 - 1


@dataclass(frozen=True, slots=True)
class CouponPayload(SignedBody):
    index: int
    zip_code: str
    job_type: str

    def __post_init__(self):
        if not isinstance(self.index, int) or isinstance(self.index, bool):
            raise CanonicalError("coupon index must be an integer")
        if not 0 <= self.index <= _MAX_INDEX:
            raise CanonicalError("coupon index out of range")
        if not isinstance(self.zip_code, str) or not _ZIP_RE.fullmatch(self.zip_code):
            raise InvalidZipError(f"bad zip code {self.zip_code!r}")
        if not isinstance(self.job_type, str) or not self.job_type:
            raise InvalidJobTypeError("job type must be non-empty text")

    def to_wire(self) -> dict:
        return {"index": self.index, "job": self.job_type, "zip": self.zip_code}

    @classmethod
    def from_wire(cls, obj) -> "CouponPayload":
        index, job, zip_code = canonical.fields(obj, ("index", "job", "zip"), "coupon payload")
        return cls(index=index, zip_code=zip_code, job_type=job)


@dataclass(frozen=True)  # not slotted: the ids are cached in the instance dict
class Coupon(SignedEnvelope):
    BODY_TYPE = CouponPayload

    payload: CouponPayload
    signature: bytes

    @cached_property
    def coupon_id(self) -> bytes:
        return coupon_id(self.payload)

    @cached_property
    def sig_digest(self) -> bytes:
        """What a registry records of the signature, which is the bearer
        secret and is never stored. Signing is deterministic, so the id
        and this digest together name the one coupon the issuer signed."""
        return tagged_hash(TAG_COUPON_SIG, self.signature)


def coupon_id(payload: CouponPayload) -> bytes:
    """Stable identifier: hash of the canonical payload encoding."""
    return sha256(payload.to_bytes())


def issue_coupon_batch(
    handle: KeyHandle,
    n: int,
    zip_code: str,
    job_type: str,
    *,
    registry=None,
    job_types=DEFAULT_JOB_TYPES,
    start_index: int = 0,
) -> list:
    """Sign `n` coupons with indices start_index..start_index+n-1.

    When a registry is supplied every coupon is registered as unused,
    with its signature digest, so redemption can distinguish "unknown"
    from "unused" and admit a registered coupon without a verify. A
    coupon the registry already knows refuses the whole batch.
    """
    if n < 1:
        raise CanonicalError("batch size must be >= 1")
    if job_type not in job_types:
        raise InvalidJobTypeError(f"unknown job type {job_type!r}")
    coupons = [
        Coupon.sign(handle, CouponPayload(index=i, zip_code=zip_code, job_type=job_type))
        for i in range(start_index, start_index + n)
    ]
    if registry is not None:
        registry.register_many((c.coupon_id, c.sig_digest) for c in coupons)
    return coupons


def verify_coupon(vk: VerifyingKey, coupon: Coupon) -> bool:
    """Total signature check; any malformation is just False."""
    return isinstance(coupon, Coupon) and coupon.verify(vk)


@dataclass(frozen=True)
class EligibilityRecord:
    subject_ref: str
    zip_code: str
    job_type: str
    approved: bool


@dataclass
class DistributorBatch:
    """Coupons awaiting hand-out, released strictly in ascending index order."""

    coupons: list
    released: set = field(default_factory=set)

    def __post_init__(self):
        indices = [c.payload.index for c in self.coupons]
        held = set(indices)
        if len(held) != len(indices):
            raise CanonicalError("duplicate coupon index in batch")
        if not self.released <= held:
            raise CanonicalError("released index not in batch")
        zips = {c.payload.zip_code for c in self.coupons}
        jobs = {c.payload.job_type for c in self.coupons}
        if len(zips) > 1 or len(jobs) > 1:
            raise MismatchError("batch mixes zip codes or job types")
        self._in_order = sorted(self.coupons, key=lambda c: c.payload.index)
        self._next = 0  # every coupon before this position is released

    @property
    def zip_code(self) -> str:
        return self.coupons[0].payload.zip_code

    @property
    def job_type(self) -> str:
        return self.coupons[0].payload.job_type

    @property
    def remaining(self) -> int:
        return len(self.coupons) - len(self.released)

    def distribute(self, record: EligibilityRecord) -> Coupon:
        if not record.approved:
            raise NotEligibleError(f"record {record.subject_ref!r} not approved")
        if not self.coupons:
            raise BatchExhaustedError("batch is empty")
        if record.zip_code != self.zip_code or record.job_type != self.job_type:
            raise MismatchError(
                f"record ({record.zip_code}, {record.job_type}) does not match "
                f"batch ({self.zip_code}, {self.job_type})"
            )
        while self._next < len(self._in_order):
            c = self._in_order[self._next]
            self._next += 1
            if c.payload.index not in self.released:
                self.released.add(c.payload.index)
                return c
        raise BatchExhaustedError("all coupons already handed out")
