"""Signing, hashing, salted commitments, key agreement and encryption.

Secret material lives behind :class:`KeyHandle` and is never returned by
any operation; the only persistence path is a passphrase-encrypted blob.
One 256-bit hash (SHA-256) is used everywhere, separated by one-byte
domain tags so digests from different contexts can never be spliced.
This is the only module that calls ``cryptography``, the one library
for signatures, agreement (ephemeral X25519, then HKDF-SHA256, which
maps every failure to AuthFailureError), AEAD (ChaCha20-Poly1305),
SHA-256, scrypt and comparison (:func:`digests_equal`). No module imports
``hashlib``, ``hmac`` or ``secrets``: they would map the system's
libcrypto into the process beside the OpenSSL ``cryptography`` carries.

Every Ed25519 verify passes through :func:`verify`, which remembers the
triples it has verified: a repeat showing of the same signed bytes under
the same key skips the verify, and a first showing does not. That is
sound only because this module is the one verifier. EdDSA verifiers of
different libraries disagree on edge cases (Chalkias, Garillot and
Nikolaenko, "Taming the many EdDSAs", SSR 2020), but under one library
the answer is a deterministic function of (key, signature, message).
Failures are never remembered. The memory holds at most 4,096 32-byte
digests (about 0.4 MB), in memory only: it is never logged or written.
"""

from __future__ import annotations

import os
import random
import struct
import threading
from _operator import _compare_digest
from dataclasses import dataclass

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
from cryptography.hazmat.primitives.hashes import SHA256, Hash
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.kdf.scrypt import Scrypt

from . import canonical
from .canonical import Field
from .errors import AuthFailureError, CanonicalError, VaxError

SCHEME = "ed25519+x25519"
SIGNATURE_LEN = 64
DIGEST_LEN = 32
SALT_LEN = 16

# Domain-separation tags. 0x00/0x01 are the Merkle leaf/node tags used in
# merkle.py; 0x02 commits to PII values; 0x03 fingerprints whole passkeys;
# 0x04 digests the coupon signatures a registry records; 0x05 digests
# a signed badge (signature, then info bytes) the registry records at dose 1;
# 0x06 digests a (key, signature, message) triple that ``verify`` accepted.
TAG_LEAF = b"\x00"
TAG_NODE = b"\x01"
TAG_PII = b"\x02"
TAG_PASSKEY = b"\x03"
TAG_COUPON_SIG = b"\x04"
TAG_BADGE_SIG = b"\x05"
TAG_VERIFIED = b"\x06"

_PKENC_INFO = b"vaxcred/pkenc/v1"
_SEAL_INFO = b"vaxcred/keyblob/v1"


def _primed(prefix: bytes) -> Hash:
    context = Hash(SHA256())
    context.update(prefix)
    return context


# SHA-256 contexts that have taken in nothing, or one domain tag; each
# call hashes in a copy, so these are only ever read
_EMPTY = _primed(b"")
_TAGGED = {tag: _primed(tag) for tag in (
    TAG_LEAF, TAG_NODE, TAG_PII, TAG_PASSKEY, TAG_COUPON_SIG, TAG_BADGE_SIG, TAG_VERIFIED)}


def sha256(data: bytes) -> bytes:
    context = _EMPTY.copy()
    context.update(data)
    return context.finalize()


def tagged_hash(tag: bytes, *parts: bytes) -> bytes:
    """SHA-256 of tag || parts[0] || parts[1] ..., under one of the domain
    tags. One update of the joined parts costs less than one per part."""
    primed = _TAGGED.get(tag)
    if primed is None:
        raise VaxError(f"not a domain tag: {tag!r}")
    context = primed.copy()
    context.update(b"".join(parts))
    return context.finalize()


# True when two digests are equal, in time that does not depend on where
# they differ; the C routine behind hmac.compare_digest
digests_equal = _compare_digest

# the OS generator: its randbytes is os.urandom, and getrandbits and
# randrange draw from os.urandom too
_SYSTEM_RANDOM = random.SystemRandom()


def randomness(rng=None):
    """The injected rng (a random.Random, for simulations), else the OS
    generator. Every draw goes through randbytes, getrandbits or
    randrange, so production takes the same path as a seeded run."""
    return _SYSTEM_RANDOM if rng is None else rng


def new_salt(rng=None) -> bytes:
    """16 bytes from a CSPRNG (or the injected rng, for simulations)."""
    return randomness(rng).randbytes(SALT_LEN)


def salted_hash(value: bytes, salt: bytes) -> bytes:
    """PII commitment: H(0x02 || len(value) || value || salt)."""
    if len(salt) != SALT_LEN:
        raise VaxError(f"salt must be {SALT_LEN} bytes")
    return tagged_hash(TAG_PII, struct.pack(">I", len(value)), value, salt)


@dataclass(frozen=True)
class VerifyingKey(canonical.Wire):
    """Public identity: Ed25519 verify key || X25519 encryption key.

    Equality is byte equality; the scheme id travels with every
    serialization so verifiers reject foreign schemes.
    """

    key_bytes: bytes
    scheme: str = SCHEME

    TABLE = canonical.Table(
        "verifying key",
        Field("keys", canonical.fixed(64), "key_bytes"),
        Field("scheme", canonical.TEXT),
    )

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

    def hex(self) -> str:
        return self.key_bytes.hex()

    @classmethod
    def from_hex(cls, text: str) -> "VerifyingKey":
        try:
            raw = bytes.fromhex(text)
        except (ValueError, TypeError) as exc:
            raise CanonicalError(f"not a hex key: {exc}") from exc
        return cls(key_bytes=raw)


class KeyHandle:
    """Opaque holder of the signing and decryption secrets.

    No method returns the secrets or a raw shared secret: ``derive``
    returns HKDF output under the caller's label, and ``seal`` exports
    only a passphrase-encrypted blob. Safe to share across threads (the
    underlying key objects are immutable).
    """

    def __init__(self, sign_key: Ed25519PrivateKey, enc_key: X25519PrivateKey):
        self._sign_key = sign_key
        self._enc_key = enc_key
        self._verifying_key = VerifyingKey(
            key_bytes=sign_key.public_key().public_bytes_raw()
            + enc_key.public_key().public_bytes_raw()
        )

    @property
    def verifying_key(self) -> VerifyingKey:
        return self._verifying_key

    def sign(self, msg: bytes) -> bytes:
        return self._sign_key.sign(msg)

    def decrypt(self, ct: "PkCiphertext") -> bytes:
        """The plaintext ``encrypt_to`` boxed to this key; AuthFailureError
        for a wrong key or a tampered box."""
        key = self.derive(ct.ephemeral_pub, _PKENC_INFO)
        return aead_open(key, ct.nonce, ct.body, ct.ephemeral_pub)

    def derive(self, eph_pub: bytes, info: bytes, length: int = 32) -> bytes:
        """The ``length`` bytes that ``ephemeral_agreement`` gave the sender
        of ``eph_pub`` under ``info``."""
        return _agree(self._enc_key, eph_pub, eph_pub, info, length)

    def seal(self, passphrase: str) -> bytes:
        """Encrypted key blob, decryptable only with the passphrase."""
        seed = self._sign_key.private_bytes_raw() + self._enc_key.private_bytes_raw()
        return seal_with_passphrase(seed, passphrase, _SEAL_INFO)

    @classmethod
    def unseal(cls, blob: bytes, passphrase: str) -> "KeyHandle":
        seed = open_with_passphrase(blob, passphrase, _SEAL_INFO)
        if len(seed) != 64:
            raise CanonicalError("a key blob holds two 32-byte seeds")
        return cls(
            Ed25519PrivateKey.from_private_bytes(seed[:32]),
            X25519PrivateKey.from_private_bytes(seed[32:]),
        )


_SEALED_VERSION = b"\x01"
_NONCE_LEN = 12
_TAG_LEN = 16


def seal_with_passphrase(plaintext: bytes, passphrase: str, aad: bytes) -> bytes:
    """version byte || scrypt salt || nonce || ChaCha20-Poly1305(plaintext),
    under a key derived from the passphrase. ``aad`` names what the blob
    holds, so a blob of one kind never opens as another."""
    kdf_salt = os.urandom(SALT_LEN)
    nonce = os.urandom(_NONCE_LEN)
    body = aead_seal(_passphrase_key(passphrase, kdf_salt), nonce, plaintext, aad)
    return _SEALED_VERSION + kdf_salt + nonce + body


def open_with_passphrase(blob: bytes, passphrase: str, aad: bytes) -> bytes:
    """The plaintext of a ``seal_with_passphrase`` blob. CanonicalError
    when the blob has not that layout, AuthFailureError when the
    passphrase or ``aad`` is wrong or the blob was altered."""
    if (not isinstance(blob, bytes) or len(blob) < 1 + SALT_LEN + _NONCE_LEN + _TAG_LEN
            or blob[:1] != _SEALED_VERSION):
        raise CanonicalError("not a sealed blob")
    kdf_salt = blob[1 : 1 + SALT_LEN]
    nonce = blob[1 + SALT_LEN : 1 + SALT_LEN + _NONCE_LEN]
    key = _passphrase_key(passphrase, kdf_salt)
    return aead_open(key, nonce, blob[1 + SALT_LEN + _NONCE_LEN :], aad)


def _passphrase_key(passphrase: str, kdf_salt: bytes) -> bytes:
    return Scrypt(salt=kdf_salt, length=32, n=2**14, r=8, p=1).derive(
        passphrase.encode("utf-8"))


def generate_keypair(rng=None) -> tuple[KeyHandle, VerifyingKey]:
    """Fresh signing+decryption identity.

    ``rng`` (a random.Random) makes generation reproducible for
    simulations; production callers leave it unset for OS randomness.
    """
    source = randomness(rng)
    sign_seed, enc_seed = source.randbytes(32), source.randbytes(32)
    handle = KeyHandle(
        Ed25519PrivateKey.from_private_bytes(sign_seed),
        X25519PrivateKey.from_private_bytes(enc_seed),
    )
    return handle, handle.verifying_key


VERIFIED_MAX = 4096
_verified: set = set()  # TAG_VERIFIED digests of triples ``verify`` accepted
_verified_lock = threading.Lock()


def verify(vk: VerifyingKey, msg: bytes, sig: bytes) -> bool:
    """Total verification: malformed inputs are a rejection, never a crash.

    A triple verified before is accepted from memory: the SHA-256 under
    ``TAG_VERIFIED`` of key (32 bytes) || signature (64 bytes) || message.
    The fixed-length prefixes split that input one way only, so a hit is
    the answer a verify of the same triple gives. Only successes are
    added, so an altered triple is verified (and refused) every time; the
    set is emptied once it holds ``VERIFIED_MAX`` digests."""
    if not isinstance(sig, bytes) or len(sig) != SIGNATURE_LEN:
        return False
    try:
        public = vk.sig_bytes
        digest = tagged_hash(TAG_VERIFIED, public, sig, msg)
        if digest in _verified:
            return True
        Ed25519PublicKey.from_public_bytes(public).verify(sig, msg)
    except Exception:
        return False
    with _verified_lock:
        if len(_verified) >= VERIFIED_MAX:
            _verified.clear()
        _verified.add(digest)
    return True


class SignedBody(canonical.Wire):
    """Base of a body an issuer signs: a coupon payload, badge info or
    status payload, each a frozen dataclass with a declared ``TABLE``.

    It keeps its canonical bytes when read (the table reader slices them
    from the input, or ``from_bytes`` keeps its whole input) or signed
    (``SignedEnvelope.sign``), and verifying, hashing and re-encoding read
    them. A body built in process is written on request; callers pass
    those bytes on rather than ask twice, and holders keep no second copy.
    The kept bytes are no dataclass field: they take no part in ``==`` or
    ``repr``.
    """

    __slots__ = ("_kept",)

    def to_bytes(self) -> bytes:
        kept = getattr(self, "_kept", None)
        return self.TABLE.write(self) if kept is None else kept

    def _keep(self, data: bytes) -> "SignedBody":
        object.__setattr__(self, "_kept", data)
        return self

    @classmethod
    def from_bytes(cls, data) -> "SignedBody":
        return cls.TABLE.read(data)._keep(bytes(data))


class SignedEnvelope(canonical.Wire):
    """One issuer signature over one body's canonical bytes.

    Subclasses are frozen dataclasses with two positional fields: the body,
    named by ``BODY`` and of type ``BODY_TYPE``, then ``signature``. The
    wire form is ``{BODY: body, "sig": signature}``, the table each
    subclass is given. The constructor checks
    both fields, so an envelope that exists is well formed and ``verify``
    is one Ed25519 call over the body's bytes.
    """

    __slots__ = ()
    BODY = "payload"
    BODY_TYPE = SignedBody

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.TABLE = canonical.Table(cls.__name__.lower(),
                                    Field(cls.BODY, canonical.signed(cls.BODY_TYPE.TABLE)),
                                    Field("sig", canonical.fixed(SIGNATURE_LEN), "signature"),
                                    build=cls)

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


@dataclass(frozen=True)
class PkCiphertext(canonical.Wire):
    """Authenticated public-key ciphertext (ephemeral X25519 + AEAD)."""

    ephemeral_pub: bytes
    nonce: bytes
    body: bytes

    TABLE = canonical.Table(
        "ciphertext",
        Field("body", canonical.BYTES),
        Field("eph", canonical.fixed(32), "ephemeral_pub"),
        Field("nonce", canonical.fixed(_NONCE_LEN)),
    )


def aead_seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """ChaCha20-Poly1305 under a 32-byte key and a 12-byte nonce."""
    return ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)


def aead_open(key: bytes, nonce: bytes, body: bytes, aad: bytes) -> bytes:
    """The plaintext of an ``aead_seal`` body; AuthFailureError when the
    key, nonce or ``aad`` is wrong or the body was altered."""
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, body, aad)
    except InvalidTag as exc:
        raise AuthFailureError("wrong key or tampered ciphertext") from exc


def _agree(secret: X25519PrivateKey, peer: bytes, eph_pub: bytes, info: bytes,
           length: int) -> bytes:
    """HKDF-SHA256 over the X25519 secret of ``secret`` and ``peer``, salted
    with the ephemeral public key. AuthFailureError for a peer key that is
    not 32 bytes, or of low order, which gives no shared secret."""
    if not isinstance(peer, bytes) or len(peer) != 32:
        raise AuthFailureError("peer key must be 32 bytes")
    try:
        shared = secret.exchange(X25519PublicKey.from_public_bytes(peer))
    except ValueError as exc:
        raise AuthFailureError("peer key of low order") from exc
    return HKDF(algorithm=SHA256(), length=length, salt=eph_pub, info=info).derive(shared)


def ephemeral_agreement(pk: VerifyingKey, info: bytes, length: int = 32, rng=None):
    """(ephemeral public key, ``length`` bytes under ``info``) from a fresh
    X25519 key agreed with the encryption half of ``pk``; its holder
    derives the same bytes with ``KeyHandle.derive``. Draws 32 bytes."""
    eph = X25519PrivateKey.from_private_bytes(randomness(rng).randbytes(32))
    eph_pub = eph.public_key().public_bytes_raw()
    return eph_pub, _agree(eph, pk.enc_bytes, eph_pub, info, length)


def encrypt_to(pk: VerifyingKey, plaintext: bytes, rng=None) -> PkCiphertext:
    """Randomized encryption to the encryption half of ``pk``."""
    source = randomness(rng)
    eph_pub, key = ephemeral_agreement(pk, _PKENC_INFO, rng=source)
    nonce = source.randbytes(_NONCE_LEN)
    body = aead_seal(key, nonce, plaintext, eph_pub)
    return PkCiphertext(ephemeral_pub=eph_pub, nonce=nonce, body=body)
