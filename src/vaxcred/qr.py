"""Scannable text encodings: versioned prefix + unpadded base-32 body.

Base-32 keeps the body in the QR alphanumeric character set and makes
scanning case-insensitive; the prefix names the payload type so a badge
can never be fed to a coupon reader. Decoding is strict (exact alphabet,
bit-exact round trip) and checks no signature: every caller verifies the
decoded object. Each payload has one text, apart from case and
surrounding whitespace: a body whose last character carries non-zero
unused bits is refused (RFC 4648 section 3.5).
"""

from __future__ import annotations

import base64
import re
from typing import Optional

from .coupons import Coupon
from .credentials import Badge, Passkey, Status
from .errors import DecodeError, LengthExceededError, UnknownPrefixError
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
# not re.IGNORECASE, which would also match "ſ" and the Kelvin sign
_BODY_RE = re.compile(r"[A-Za-z2-7]+")
# the RFC 4648 alphabet, either case, onto the digits int(..., 32) reads
_TO_DIGITS = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ234567abcdefghijklmnopqrstuvwxyz",
                           "0123456789ABCDEFGHIJKLMNOPQRSTUV0123456789ABCDEFGHIJKLMNOP")


def _b32(data: bytes) -> str:
    return base64.b32encode(data).decode("ascii").rstrip("=")


def _unb32(body: str) -> bytes:
    body = body.strip()
    if _BODY_RE.fullmatch(body) is None:
        raise DecodeError("body is not unpadded base-32")
    if len(body) % 8 in (1, 3, 6):
        raise DecodeError(f"base-32 body of {len(body)} chars is not a whole number of bytes")
    size, unused = divmod(5 * len(body), 8)
    # the alphabet check above keeps "_", signs, spaces and non-ASCII digits from int()
    value = int(body.translate(_TO_DIGITS), 32)
    if value & ((1 << unused) - 1):
        raise DecodeError("base-32 body has non-zero unused bits")
    return (value >> unused).to_bytes(size, "big")


def encode_qr(payload) -> str:
    """Versioned prefix + base-32 of the canonical bytes, <= 2048 chars."""
    prefix = _PREFIX_OF.get(type(payload))
    if prefix is None:
        raise UnknownPrefixError(f"no QR encoding for {type(payload).__name__}")
    text = f"{prefix}:{_b32(payload.to_bytes())}"
    if len(text) > MAX_QR_CHARS:
        raise LengthExceededError(f"QR text of {len(text)} chars exceeds {MAX_QR_CHARS}")
    return text


def _decode_body(cls, what: str, body: str):
    """``cls`` from a base-32 body; every malformation is a DecodeError."""
    try:
        return cls.from_bytes(_unb32(body))
    except DecodeError:
        raise
    except Exception as exc:
        raise DecodeError(f"malformed {what} payload: {exc}") from exc


def decode_qr(text: str, expect: Optional[type] = None):
    """Parse QR text back into its object. `expect` pins the payload type
    (a scanner for coupons refuses badge codes)."""
    if not isinstance(text, str):
        raise DecodeError("QR payload must be text")
    if len(text) > MAX_QR_CHARS:
        raise LengthExceededError(f"QR text of {len(text)} chars exceeds {MAX_QR_CHARS}")
    head, sep, body = text.strip().partition(":")
    prefix = head.upper()
    if not sep or prefix not in _TYPES or not head.isascii():
        raise UnknownPrefixError(f"unknown QR prefix {prefix[:8]!r}")
    cls = _TYPES[prefix]
    if expect is not None and cls is not expect:
        raise UnknownPrefixError(
            f"expected {_PREFIX_OF.get(expect, '?')} payload, got {prefix}"
        )
    return _decode_body(cls, prefix, body)


def export_coupon_url(coupon: Coupon) -> str:
    """Shareable link carrying the complete signed coupon, <= 256 chars."""
    url = COUPON_URL_SCHEME + _b32(coupon.to_bytes())
    if len(url) > MAX_URL_CHARS:
        raise LengthExceededError(f"coupon URL of {len(url)} chars exceeds {MAX_URL_CHARS}")
    return url


def import_coupon_url(url: str) -> Coupon:
    """The coupon a link carries, under the limits and errors of decode_qr."""
    if not isinstance(url, str) or url[: len(COUPON_URL_SCHEME)].lower() != COUPON_URL_SCHEME:
        raise UnknownPrefixError("not a coupon link")
    if len(url) > MAX_URL_CHARS:
        raise LengthExceededError(f"coupon URL of {len(url)} chars exceeds {MAX_URL_CHARS}")
    return _decode_body(Coupon, "coupon link", url[len(COUPON_URL_SCHEME):])
