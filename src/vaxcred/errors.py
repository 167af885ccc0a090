"""Typed errors shared across the protocol roles.

Verification-style operations are total and return rejection values instead
of raising; these exceptions cover precondition violations and state-machine
misuse, and the CLI maps them to exit code 2.
"""

from __future__ import annotations


class VaxError(Exception):
    """Base class for all typed protocol errors."""

    code = "error"


class CanonicalError(VaxError):
    code = "canonical"


class DecodeError(VaxError):
    """Malformed wire bytes or QR text."""

    code = "decode"


class UnknownPrefixError(DecodeError):
    code = "unknown-prefix"


class LengthExceededError(DecodeError):
    code = "length-exceeded"


class SignatureInvalidError(VaxError):
    """Embedded signature failed verification after decode."""

    code = "signature-invalid"


class AuthFailureError(VaxError):
    """Ciphertext not addressed to this key, or tampered."""

    code = "auth-failure"


class RandomnessError(VaxError):
    code = "randomness"


class DuplicateLabelError(VaxError):
    code = "duplicate-label"


class UnknownLabelError(VaxError):
    code = "unknown-label"


class EmptyRequestError(VaxError):
    code = "empty-request"


class InvalidZipError(VaxError):
    code = "invalid-zip"


class InvalidJobTypeError(VaxError):
    code = "invalid-job-type"


class UnknownCouponError(VaxError):
    code = "unknown-coupon"


class AlreadyUsedError(VaxError):
    code = "already-used"


class InvalidTransitionError(VaxError):
    code = "invalid-transition"


class DismantledError(VaxError):
    """Registry has been irreversibly deleted."""

    code = "dismantled"


class NotEligibleError(VaxError):
    code = "not-eligible"


class MismatchError(VaxError):
    """Coupon zip/job does not match the eligibility record."""

    code = "mismatch"


class BatchExhaustedError(VaxError):
    code = "batch-exhausted"


class BadCouponError(VaxError):
    code = "bad-coupon"


class BadSignatureError(VaxError):
    code = "bad-signature"


class WrongStateError(VaxError):
    code = "wrong-state"


class ProductMismatchError(VaxError):
    code = "product-mismatch"


class ServiceUnreachableError(VaxError):
    """The signing service could not be reached, or a request and its one
    re-send both failed. A failed connect has no effect; after a failed
    re-send the issuer may have recorded the dose."""

    code = "service-unreachable"


class MissingCredentialError(VaxError):
    code = "missing-credential"


class ConsentDeniedError(VaxError):
    code = "consent-denied"


class NotApplicableError(VaxError):
    code = "not-applicable"


class VariantError(VaxError):
    """Operation applied to the wrong wallet/credential variant."""

    code = "variant"


class TrustFailureError(VaxError):
    """Venue channel trust bootstrap failed; no channel established."""

    code = "trust-failure"


class UnsupportedError(VaxError):
    code = "unsupported"


class SessionStateError(VaxError):
    """Illegal channel-session transition."""

    code = "session-state"


class ModulusTooSmallError(VaxError):
    code = "modulus-too-small"


class ShareLengthError(VaxError):
    code = "share-length"


class CountMismatchError(VaxError):
    code = "count-mismatch"


class RangeViolationError(VaxError):
    """Recombined totals exceed the honest bound n*B (malformed shares)."""

    code = "range-violation"


class NoiseParameterError(VaxError):
    code = "noise-parameter"


class ConfigError(VaxError):
    code = "config"


def _code_index() -> dict:
    index = {}
    stack = [VaxError]
    while stack:
        cls = stack.pop()
        index.setdefault(cls.code, cls)
        stack.extend(cls.__subclasses__())
    return index


def error_from_code(code, message: str = "reported by signing service") -> VaxError:
    """Rebuild a typed error from its wire code (unknown codes -> VaxError)."""
    cls = _code_index().get(code, VaxError) if isinstance(code, str) else VaxError
    return cls(message)
