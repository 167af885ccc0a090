"""Scannable text encodings: versioned prefix + unpadded base-32 body.

Base-32 keeps the body in the QR alphanumeric character set and makes
scanning case-insensitive; the prefix names the payload type so a badge
can never be fed to a coupon reader. Decoding is strict (exact alphabet,
bit-exact round trip) and, when the relevant issuer key is supplied,
re-verifies the embedded signature before returning the object.
"""

from __future__ import annotations

import base64
import binascii
import re
from typing import Optional

from .coupons import Coupon
from .credentials import Badge, Passkey, Status
from .crypto import SignedEnvelope, VerifyingKey
from .errors import (
    DecodeError,
    LengthExceededError,
    SignatureInvalidError,
    UnknownPrefixError,
)
from .merkle import DisclosureProof

MAX_QR_CHARS = 2048
MAX_URL_CHARS = 256
COUPON_URL_SCHEME = "vax://c/"

_TYPES = {
    "CPN1": Coupon,
    "BDG1": Badge,
    "STS1": Status,
    "PSK1": Passkey,
    "DSC1": DisclosureProof,
}
_PREFIX_OF = {cls: prefix for prefix, cls in _TYPES.items()}
_BODY_RE = re.compile(r"^[A-Z2-7]+$")


def _b32(data: bytes) -> str:
    return base64.b32encode(data).decode("ascii").rstrip("=")


def _unb32(body: str) -> bytes:
    body = body.strip().upper()
    if not body or not _BODY_RE.match(body):
        raise DecodeError("body is not unpadded base-32")
    pad = (-len(body)) % 8
    try:
        return base64.b32decode(body + "=" * pad)
    except (binascii.Error, ValueError) as exc:
        raise DecodeError(f"base-32 decode failed: {exc}") from exc


def encode_qr(payload) -> str:
    """Versioned prefix + base-32 of the canonical bytes, <= 2048 chars."""
    prefix = _PREFIX_OF.get(type(payload))
    if prefix is None:
        raise UnknownPrefixError(f"no QR encoding for {type(payload).__name__}")
    text = f"{prefix}:{_b32(payload.to_bytes())}"
    if len(text) > MAX_QR_CHARS:
        raise LengthExceededError(f"QR text of {len(text)} chars exceeds {MAX_QR_CHARS}")
    return text


def decode_qr(
    text: str,
    expect: Optional[type] = None,
    *,
    coupon_key: Optional[VerifyingKey] = None,
    credential_key: Optional[VerifyingKey] = None,
):
    """Parse QR text back into its object.

    `expect` pins the payload type (a scanner for coupons refuses badge
    codes). Passing the issuing keys makes decode re-verify signatures:
    `coupon_key` for coupons, `credential_key` for badges and statuses.
    """
    if not isinstance(text, str):
        raise DecodeError("QR payload must be text")
    if len(text) > MAX_QR_CHARS:
        raise LengthExceededError(f"QR text of {len(text)} chars exceeds {MAX_QR_CHARS}")
    prefix, sep, body = text.strip().partition(":")
    prefix = prefix.upper()
    if not sep or prefix not in _TYPES:
        raise UnknownPrefixError(f"unknown QR prefix {prefix[:8]!r}")
    cls = _TYPES[prefix]
    if expect is not None and cls is not expect:
        raise UnknownPrefixError(
            f"expected {_PREFIX_OF.get(expect, '?')} payload, got {prefix}"
        )
    try:
        payload = cls.from_bytes(_unb32(body))
    except DecodeError:
        raise
    except Exception as exc:
        raise DecodeError(f"malformed {prefix} payload: {exc}") from exc
    key = coupon_key if cls is Coupon else credential_key
    if isinstance(payload, SignedEnvelope) and key is not None and not payload.verify(key):
        raise SignatureInvalidError(f"{cls.__name__.lower()} signature does not verify")
    return payload


def export_coupon_url(coupon: Coupon) -> str:
    """Shareable link carrying the complete signed coupon, <= 256 chars."""
    url = COUPON_URL_SCHEME + _b32(coupon.to_bytes())
    if len(url) > MAX_URL_CHARS:
        raise LengthExceededError(f"coupon URL of {len(url)} chars exceeds {MAX_URL_CHARS}")
    return url


def import_coupon_url(url: str, coupon_key: Optional[VerifyingKey] = None) -> Coupon:
    if not isinstance(url, str) or not url.lower().startswith(COUPON_URL_SCHEME):
        raise UnknownPrefixError("not a coupon link")
    coupon = Coupon.from_bytes(_unb32(url[len(COUPON_URL_SCHEME):]))
    if coupon_key is not None and not coupon.verify(coupon_key):
        raise SignatureInvalidError("coupon signature does not verify")
    return coupon
