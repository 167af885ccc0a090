"""Signing, hashing, salted commitments, and public-key encryption.

Secret material lives behind :class:`KeyHandle` and is never returned by
any operation; the only persistence path is a passphrase-encrypted blob.
One 256-bit hash (SHA-256) is used everywhere, separated by one-byte
domain tags so digests from different contexts can never be spliced.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import struct
from dataclasses import dataclass
from typing import Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import canonical
from .errors import AuthFailureError, CanonicalError, VaxError

SCHEME = "ed25519+x25519"
SIGNATURE_LEN = 64
DIGEST_LEN = 32
SALT_LEN = 16

# Domain-separation tags. 0x00/0x01 are the Merkle leaf/node tags used in
# merkle.py; 0x02 commits to PII values; 0x03 fingerprints whole passkeys.
TAG_LEAF = b"\x00"
TAG_NODE = b"\x01"
TAG_PII = b"\x02"
TAG_PASSKEY = b"\x03"

_PKENC_INFO = b"vaxcred/pkenc/v1"
_SEAL_INFO = b"vaxcred/keyblob/v1"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def tagged_hash(tag: bytes, data: bytes) -> bytes:
    """256-bit digest of data under a one-byte domain tag."""
    if len(tag) != 1:
        raise VaxError("domain tag must be one byte")
    return hashlib.sha256(tag + data).digest()


def new_salt(rng=None) -> bytes:
    """16 bytes from a CSPRNG (or the injected rng, for simulations)."""
    if rng is not None:
        return rng.randbytes(SALT_LEN)
    return secrets.token_bytes(SALT_LEN)


def salted_hash(value: bytes, salt: bytes) -> bytes:
    """PII commitment: H(0x02 || len(value) || value || salt)."""
    if len(salt) != SALT_LEN:
        raise VaxError(f"salt must be {SALT_LEN} bytes")
    return tagged_hash(TAG_PII, struct.pack(">I", len(value)) + value + salt)


@dataclass(frozen=True)
class VerifyingKey:
    """Public identity: Ed25519 verify key || X25519 encryption key.

    Equality is byte equality; the scheme id travels with every
    serialization so verifiers reject foreign schemes.
    """

    key_bytes: bytes
    scheme: str = SCHEME

    def __post_init__(self):
        if self.scheme != SCHEME:
            raise VaxError(f"unsupported key scheme {self.scheme!r}")
        if not isinstance(self.key_bytes, bytes) or len(self.key_bytes) != 64:
            raise VaxError("verifying key must be 64 bytes")

    @property
    def sig_bytes(self) -> bytes:
        return self.key_bytes[:32]

    @property
    def enc_bytes(self) -> bytes:
        return self.key_bytes[32:]

    def to_wire(self) -> dict:
        return {"scheme": self.scheme, "keys": self.key_bytes}

    @classmethod
    def from_wire(cls, obj: dict) -> "VerifyingKey":
        if not isinstance(obj, dict) or set(obj) != {"keys", "scheme"}:
            raise CanonicalError("malformed verifying key")
        return cls(key_bytes=_expect_bytes(obj, "keys", 64), scheme=_expect_text(obj, "scheme"))

    def hex(self) -> str:
        return self.key_bytes.hex()

    @classmethod
    def from_hex(cls, text: str) -> "VerifyingKey":
        try:
            raw = bytes.fromhex(text)
        except (ValueError, TypeError) as exc:
            raise CanonicalError(f"not a hex key: {exc}") from exc
        return cls(key_bytes=raw)


def _expect_bytes(obj: dict, key: str, length: int | None = None) -> bytes:
    value = obj.get(key)
    if not isinstance(value, bytes):
        raise CanonicalError(f"field {key!r} must be bytes")
    if length is not None and len(value) != length:
        raise CanonicalError(f"field {key!r} must be {length} bytes")
    return value


def _expect_text(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise CanonicalError(f"field {key!r} must be text")
    return value


class KeyHandle:
    """Opaque holder of the signing and decryption secrets.

    No method returns secret bytes; ``seal`` exports only a
    passphrase-encrypted blob. Safe to share across threads (the
    underlying key objects are immutable).
    """

    def __init__(self, sign_key: Ed25519PrivateKey, enc_key: X25519PrivateKey):
        self._sign_key = sign_key
        self._enc_key = enc_key
        self._verifying_key = VerifyingKey(
            key_bytes=sign_key.public_key().public_bytes_raw()
            + enc_key.public_key().public_bytes_raw()
        )
        self.handle_id = tagged_hash(TAG_PASSKEY, self._verifying_key.key_bytes).hex()[:16]

    @property
    def verifying_key(self) -> VerifyingKey:
        return self._verifying_key

    def sign(self, msg: bytes) -> bytes:
        return self._sign_key.sign(msg)

    def decrypt(self, ct: "PkCiphertext") -> bytes:
        return _pk_decrypt(self._enc_key, ct)

    def exchange(self, peer_public: bytes) -> bytes:
        """Raw X25519 shared secret with an ephemeral peer key (for
        interactive channels; feed it to a KDF before use)."""
        if not isinstance(peer_public, bytes) or len(peer_public) != 32:
            raise AuthFailureError("peer key must be 32 bytes")
        return self._enc_key.exchange(X25519PublicKey.from_public_bytes(peer_public))

    def seal(self, passphrase: str) -> bytes:
        """Encrypted key blob, decryptable only with the passphrase."""
        seed = self._sign_key.private_bytes_raw() + self._enc_key.private_bytes_raw()
        return seal_with_passphrase(seed, passphrase, _SEAL_INFO)

    @classmethod
    def unseal(cls, blob: bytes, passphrase: str) -> "KeyHandle":
        seed = open_with_passphrase(blob, passphrase, _SEAL_INFO)
        return cls(
            Ed25519PrivateKey.from_private_bytes(seed[:32]),
            X25519PrivateKey.from_private_bytes(seed[32:]),
        )

    def __repr__(self) -> str:
        return f"KeyHandle({self.handle_id})"


_SEALED_VERSION = b"\x01"
_NONCE_LEN = 12
_TAG_LEN = 16


def seal_with_passphrase(plaintext: bytes, passphrase: str, aad: bytes) -> bytes:
    """version byte || scrypt salt || nonce || ChaCha20-Poly1305(plaintext),
    under a key derived from the passphrase. ``aad`` names what the blob
    holds, so a blob of one kind never opens as another."""
    kdf_salt = secrets.token_bytes(SALT_LEN)
    nonce = secrets.token_bytes(_NONCE_LEN)
    body = ChaCha20Poly1305(_passphrase_key(passphrase, kdf_salt)).encrypt(nonce, plaintext, aad)
    return _SEALED_VERSION + kdf_salt + nonce + body


def open_with_passphrase(blob: bytes, passphrase: str, aad: bytes) -> bytes:
    """The plaintext of a ``seal_with_passphrase`` blob. CanonicalError
    when the blob has not that layout, AuthFailureError when the
    passphrase or ``aad`` is wrong or the blob was altered."""
    if len(blob) < 1 + SALT_LEN + _NONCE_LEN + _TAG_LEN or blob[:1] != _SEALED_VERSION:
        raise CanonicalError("not a sealed blob")
    kdf_salt = blob[1 : 1 + SALT_LEN]
    nonce = blob[1 + SALT_LEN : 1 + SALT_LEN + _NONCE_LEN]
    try:
        return ChaCha20Poly1305(_passphrase_key(passphrase, kdf_salt)).decrypt(
            nonce, blob[1 + SALT_LEN + _NONCE_LEN :], aad
        )
    except InvalidTag as exc:
        raise AuthFailureError("wrong passphrase or corrupted sealed blob") from exc


def _passphrase_key(passphrase: str, kdf_salt: bytes) -> bytes:
    return hashlib.scrypt(
        passphrase.encode("utf-8"), salt=kdf_salt, n=2**14, r=8, p=1, dklen=32
    )


def generate_keypair(rng=None) -> tuple[KeyHandle, VerifyingKey]:
    """Fresh signing+decryption identity.

    ``rng`` (a random.Random) makes generation reproducible for
    simulations; production callers leave it unset for OS randomness.
    """
    if rng is not None:
        sign_seed, enc_seed = rng.randbytes(32), rng.randbytes(32)
    else:
        sign_seed, enc_seed = os.urandom(32), os.urandom(32)
    handle = KeyHandle(
        Ed25519PrivateKey.from_private_bytes(sign_seed),
        X25519PrivateKey.from_private_bytes(enc_seed),
    )
    return handle, handle.verifying_key


def verify(vk: VerifyingKey, msg: bytes, sig: bytes) -> bool:
    """Total verification: malformed inputs are a rejection, never a crash."""
    if not isinstance(sig, bytes) or len(sig) != SIGNATURE_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(vk.sig_bytes).verify(sig, msg)
        return True
    except Exception:
        return False


class SignedBody:
    """Base of a body an issuer signs: a coupon payload, badge info or
    status payload, each a frozen dataclass with ``to_wire``/``from_wire``.

    It keeps its canonical bytes when decoded (``parse``: the exact input
    bytes) or signed (``SignedEnvelope.sign``), and verifying, hashing and
    re-encoding read them. A body built in process is encoded on request;
    callers pass those bytes on rather than ask twice, and holders keep no
    second copy. The kept bytes are no dataclass field: they take no part
    in ``==`` or ``repr``.
    """

    __slots__ = ("_kept",)

    def to_bytes(self) -> bytes:
        kept = getattr(self, "_kept", None)
        return canonical.encode(self.to_wire()) if kept is None else kept

    def _keep(self, data: bytes) -> "SignedBody":
        object.__setattr__(self, "_kept", data)
        return self

    @classmethod
    def parse(cls, wire) -> "SignedBody":
        """``from_wire`` that keeps the exact bytes a decoded map came from."""
        body = cls.from_wire(wire)
        return body._keep(bytes(wire.raw)) if isinstance(wire, canonical.DecodedMap) else body


class SignedEnvelope(canonical.Wire):
    """One issuer signature over one body's canonical bytes.

    Subclasses are frozen dataclasses with two positional fields: the body,
    named by ``BODY`` and of type ``BODY_TYPE``, then ``signature``. The
    wire form is ``{BODY: body, "sig": signature}``. The constructor checks
    both fields, so an envelope that exists is well formed and ``verify``
    is one Ed25519 call over the body's bytes.
    """

    __slots__ = ()
    BODY = "payload"
    BODY_TYPE = SignedBody

    def __post_init__(self):
        if not isinstance(self.body, self.BODY_TYPE):
            kind = self.BODY_TYPE.__name__
            raise CanonicalError(f"{type(self).__name__} body must be a {kind}")
        if not isinstance(self.signature, bytes) or len(self.signature) != SIGNATURE_LEN:
            raise CanonicalError(f"bad {type(self).__name__.lower()} signature length")

    @property
    def body(self) -> SignedBody:
        return getattr(self, self.BODY)

    @classmethod
    def sign(cls, handle: KeyHandle, body: SignedBody) -> "SignedEnvelope":
        msg = body.to_bytes()
        return cls(body._keep(msg), handle.sign(msg))

    def verify(self, vk: VerifyingKey) -> bool:
        """Total: False for a bad signature or a body with no encoding."""
        try:
            msg = self.body.to_bytes()
        except CanonicalError:
            return False
        return verify(vk, msg, self.signature)

    def to_wire(self) -> dict:
        return {self.BODY: canonical.Encoded(self.body.to_bytes()), "sig": self.signature}

    @classmethod
    def from_wire(cls, obj) -> "SignedEnvelope":
        if not isinstance(obj, dict) or set(obj) != {cls.BODY, "sig"}:
            raise CanonicalError(f"malformed {cls.__name__.lower()}")
        return cls(cls.BODY_TYPE.parse(obj[cls.BODY]), obj["sig"])


def sign_canonical(handle: KeyHandle, value) -> bytes:
    """Sign the canonical encoding of a wire value."""
    return handle.sign(canonical.encode(value))


def verify_canonical(vk: VerifyingKey, value, sig: bytes) -> bool:
    try:
        msg = canonical.encode(value)
    except CanonicalError:
        return False
    return verify(vk, msg, sig)


@dataclass(frozen=True)
class PkCiphertext:
    """Authenticated public-key ciphertext (ephemeral X25519 + AEAD)."""

    ephemeral_pub: bytes
    nonce: bytes
    body: bytes

    def to_wire(self) -> dict:
        return {"eph": self.ephemeral_pub, "nonce": self.nonce, "body": self.body}

    @classmethod
    def from_wire(cls, obj: dict) -> "PkCiphertext":
        if not isinstance(obj, dict) or set(obj) != {"body", "eph", "nonce"}:
            raise CanonicalError("malformed ciphertext")
        return cls(
            ephemeral_pub=_expect_bytes(obj, "eph", 32),
            nonce=_expect_bytes(obj, "nonce", 12),
            body=_expect_bytes(obj, "body"),
        )


def _derive_aead_key(shared: bytes, ephemeral_pub: bytes) -> bytes:
    return HKDF(algorithm=SHA256(), length=32, salt=ephemeral_pub, info=_PKENC_INFO).derive(
        shared
    )


def encrypt_to(pk: VerifyingKey, plaintext: bytes, rng=None) -> PkCiphertext:
    """Randomized encryption to the encryption half of ``pk``."""
    if rng is not None:
        eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
        nonce = rng.randbytes(12)
    else:
        eph = X25519PrivateKey.generate()
        nonce = secrets.token_bytes(12)
    shared = eph.exchange(X25519PublicKey.from_public_bytes(pk.enc_bytes))
    eph_pub = eph.public_key().public_bytes_raw()
    key = _derive_aead_key(shared, eph_pub)
    body = ChaCha20Poly1305(key).encrypt(nonce, plaintext, eph_pub)
    return PkCiphertext(ephemeral_pub=eph_pub, nonce=nonce, body=body)


def _pk_decrypt(enc_key: X25519PrivateKey, ct: PkCiphertext) -> bytes:
    if len(ct.ephemeral_pub) != 32 or len(ct.nonce) != 12:
        raise AuthFailureError("malformed ciphertext")
    try:
        shared = enc_key.exchange(X25519PublicKey.from_public_bytes(ct.ephemeral_pub))
        key = _derive_aead_key(shared, ct.ephemeral_pub)
        return ChaCha20Poly1305(key).decrypt(ct.nonce, ct.body, ct.ephemeral_pub)
    except (InvalidTag, ValueError) as exc:
        raise AuthFailureError("wrong key or tampered ciphertext") from exc
