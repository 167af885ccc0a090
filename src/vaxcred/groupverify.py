"""Contactless venue admission: short-lived challenges over a secure channel.

The venue advertises a channel key with an issuer certificate. A holder
trusts that key only through the certificate, opens an encrypted
channel, and submits their status. If the status verifies and
meets the admission policy, the venue answers with the current challenge
code encrypted **to the holder key bound inside the signed status** — so
a relay that merely forwards someone else's status can never read the
code. The holder shows the 6-character code at the door; the guard
accepts codes from the current rotation window or the one before it.

Nothing here persists: challenge state lives in the venue session and
rotates away.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import canonical, crypto
from .canonical import Field
from .credentials import AppBinding, Status, VaccinationLevel
from .crypto import (
    KeyHandle,
    PkCiphertext,
    VerifyingKey,
    aead_open,
    aead_seal,
    encrypt_to,
    ephemeral_agreement,
    generate_keypair,
    randomness,
)
from .errors import (AuthFailureError, CanonicalError, SessionStateError, TrustFailureError,
                     VaxError)
from .verification import first_match, key_list, verify_status

_CODE_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
CODE_LEN = 6
_CHANNEL_AAD = b"vaxcred/channel/v1"
_CHANNEL_INFO = b"vaxcred/channel-keys/v1"  # 64 bytes: holder->venue key, venue->holder key


def render_code(k: int) -> str:
    """Top 30 bits of a 32-bit draw as six base-32 characters."""
    if not 0 <= k < 2 ** 32:
        raise CanonicalError("challenge draw must be 32 bits")
    return "".join(
        _CODE_ALPHABET[(k >> (27 - 5 * i)) & 31] for i in range(CODE_LEN)
    )


class TrustMode(enum.Enum):
    """How a holder trusts a venue's channel key: by the issuer's certificate."""

    ISSUER_SIGNED = "issuer-signed"


# -- frames -------------------------------------------------------------------

# what the issuer signs for a venue: (channel key, venue id)
_CERT = canonical.Table("venue certificate", Field("channel", VerifyingKey.TABLE),
                        Field("venue", canonical.TEXT))
# the holder's first channel message, in clear: (ephemeral key, venue id)
_HELLO = canonical.Table("channel hello", Field("eph", canonical.fixed(32)),
                         Field("venue", canonical.TEXT))
# the door's answer, sealed on the channel: (ciphertext to the holder key,)
_CHALLENGE = canonical.Table("challenge frame", Field("challenge", PkCiphertext.TABLE))
# what that ciphertext holds: (code, rotation window)
_CHALLENGE_BODY = canonical.Table("challenge body", Field("code", canonical.TEXT),
                                  Field("window", canonical.UINT))


# -- venue identity and advertisement ---------------------------------------


@dataclass(frozen=True)
class VenueAdvertisement(canonical.Wire):
    """What the venue posts at the door: id, channel key, certificate."""

    venue_id: str
    channel_key: VerifyingKey
    cert: bytes

    TABLE = canonical.Table(
        "venue advertisement",
        Field("cert", canonical.BYTES),
        Field("channel", VerifyingKey.TABLE, "channel_key"),
        Field("venue", canonical.TEXT, "venue_id"),
    )


@dataclass
class VenueIdentity:
    venue_id: str
    handle: KeyHandle
    cert: bytes

    @property
    def advertisement(self) -> VenueAdvertisement:
        return VenueAdvertisement(
            venue_id=self.venue_id,
            channel_key=self.handle.verifying_key,
            cert=self.cert,
        )


def make_venue(issuer_handle: KeyHandle, venue_id: str, rng=None) -> VenueIdentity:
    handle, vk = generate_keypair(rng)
    cert = issuer_handle.sign(_CERT.write((vk, venue_id)))
    return VenueIdentity(venue_id=venue_id, handle=handle, cert=cert)


def check_advertisement(adv: VenueAdvertisement, issuer_key: VerifyingKey) -> None:
    """TrustFailureError unless ``issuer_key`` certified the advertised
    channel key for the advertised venue."""
    body = _CERT.write((adv.channel_key, adv.venue_id))
    if not crypto.verify(issuer_key, body, adv.cert):
        raise TrustFailureError("venue certificate does not verify")


# -- encrypted channel -------------------------------------------------------


class SessionState(enum.Enum):
    ESTABLISHED = "established"
    STATUS_RECEIVED = "status-received"
    CHALLENGE_SENT = "challenge-sent"
    CLOSED = "closed"


class _Endpoint:
    """One end of the channel: separate AEAD keys per direction and
    counter nonces."""

    def __init__(self, send_key: bytes, recv_key: bytes):
        self._send = send_key
        self._recv = recv_key
        self._send_n = 0
        self._recv_n = 0
        self.state = SessionState.ESTABLISHED

    def _require(self, *states: SessionState) -> None:
        if self.state not in states:
            raise SessionStateError(
                f"operation invalid in state {self.state.value}"
            )

    def seal(self, plaintext: bytes) -> bytes:
        nonce = self._send_n.to_bytes(12, "big")
        self._send_n += 1
        return aead_seal(self._send, nonce, plaintext, _CHANNEL_AAD)

    def open(self, frame: bytes) -> bytes:
        nonce = self._recv_n.to_bytes(12, "big")
        self._recv_n += 1
        return aead_open(self._recv, nonce, frame, _CHANNEL_AAD)

    def close(self) -> None:
        self.state = SessionState.CLOSED


def open_channel(adv: VenueAdvertisement, mode: TrustMode, *,
                 issuer_key: VerifyingKey, rng=None):
    """Holder side: trust check, then ECDH. Returns (channel, hello bytes);
    AuthFailureError for a channel key that gives no shared secret.
    ``mode`` is the one trust mode there is."""
    check_advertisement(adv, issuer_key)
    eph_pub, keys = ephemeral_agreement(adv.channel_key, _CHANNEL_INFO, 64, rng)
    channel = _Endpoint(send_key=keys[:32], recv_key=keys[32:])
    return channel, _HELLO.write((eph_pub, adv.venue_id))


def accept_channel(identity: VenueIdentity, hello: bytes) -> _Endpoint:
    """Venue side of the handshake; AuthFailureError for an ephemeral key
    that gives no shared secret."""
    eph_pub, venue = _HELLO.read(hello)
    if venue != identity.venue_id:
        raise CanonicalError("hello addressed to a different venue")
    keys = identity.handle.derive(eph_pub, _CHANNEL_INFO, 64)
    return _Endpoint(send_key=keys[32:], recv_key=keys[:32])


# -- rotating challenges ------------------------------------------------------


@dataclass
class VenueSession:
    """Door-side state: the identity, admission policy, and the challenge
    codes for the current and previous rotation windows."""

    identity: VenueIdentity
    accepted_keys: list
    required_level: VaccinationLevel = VaccinationLevel.FULLY
    rotation_period: int = 60
    rng: object = None
    _codes: dict = field(default_factory=dict)  # window index -> code

    def _window(self, now: float) -> int:
        return int(now // self.rotation_period)

    def current_code(self, now: float) -> str:
        """Code for the window containing `now`, minting it on first use
        and pruning everything older than the grace window."""
        window = self._window(now)
        if window not in self._codes:
            self._codes[window] = render_code(randomness(self.rng).getrandbits(32))
        for stale in [w for w in self._codes if w < window - 1 or w > window]:
            del self._codes[stale]
        return self._codes[window]

    def guard_check(self, code: str, now: float) -> bool:
        """Accept a code from the current window or exactly one before."""
        if not isinstance(code, str) or len(code) != CODE_LEN:
            return False
        self.current_code(now)  # ensure the current window exists / prune
        window = self._window(now)
        shown = code.strip().upper()
        return shown in (self._codes.get(window), self._codes.get(window - 1))

    # -- protocol step ------------------------------------------------------

    def process_status(self, channel: _Endpoint, frame: bytes, now: float):
        """Handle a status submission. Returns (GateDecision, response frame
        or None). Never raises on bad input; the channel closes on garbage."""
        channel._require(SessionState.ESTABLISHED)
        try:
            status = Status.from_bytes(channel.open(frame))
        except VaxError:  # a forged or tampered frame, or bytes no status has
            channel.close()
            return GateDecision(False, "garbled"), None
        channel.state = SessionState.STATUS_RECEIVED
        level = first_match(lambda vk: verify_status(vk, status), self.accepted_keys)
        if level is None:
            return GateDecision(False, "bad-signature"), None
        if level < self.required_level:
            return GateDecision(False, "below-policy"), None
        binding = status.payload.binding
        if not isinstance(binding, AppBinding):
            return GateDecision(False, "no-holder-key"), None
        code = self.current_code(now)
        try:
            boxed = encrypt_to(
                binding.user_key, _CHALLENGE_BODY.write((code, self._window(now))), rng=self.rng
            )
        except AuthFailureError:  # a holder key of low order can receive nothing
            return GateDecision(False, "no-holder-key"), None
        response = channel.seal(_CHALLENGE.write((boxed,)))
        channel.state = SessionState.CHALLENGE_SENT
        return GateDecision(True, "ok"), response


@dataclass(frozen=True)
class GateDecision:
    accepted: bool
    reason: str


def venue_start(
    identity: VenueIdentity,
    accepted_keys,
    *,
    required_level: VaccinationLevel = VaccinationLevel.FULLY,
    rotation_period: int = 60,
    rng=None,
) -> VenueSession:
    """A door session; EmptyRequestError when no issuer key is accepted."""
    if rotation_period <= 0:
        raise CanonicalError("rotation period must be positive")
    return VenueSession(
        identity=identity,
        accepted_keys=key_list(accepted_keys),
        required_level=required_level,
        rotation_period=rotation_period,
        rng=rng,
    )


# -- holder-side protocol steps ----------------------------------------------


def submit_status(channel: _Endpoint, status: Status) -> bytes:
    channel._require(SessionState.ESTABLISHED)
    frame = channel.seal(status.to_bytes())
    channel.state = SessionState.STATUS_RECEIVED
    return frame


def receive_challenge(channel: _Endpoint, handle: KeyHandle, frame: bytes) -> str:
    """Unbox the challenge; fails unless `handle` matches the key inside
    the submitted status (that is the anti-relay property)."""
    channel._require(SessionState.STATUS_RECEIVED)
    (boxed,) = _CHALLENGE.read(channel.open(frame))
    code, _ = _CHALLENGE_BODY.read(handle.decrypt(boxed))
    if len(code) != CODE_LEN:
        raise CanonicalError("malformed challenge code")
    channel.state = SessionState.CHALLENGE_SENT
    return code


def gate_round_trip(session: VenueSession, status: Status, holder_key: KeyHandle,
                    now: float, delay: float, *, issuer_key: VerifyingKey, rng=None):
    """One contactless admission with every role in process: the holder
    opens an issuer-signed channel to the door of ``session``, submits
    ``status``, and shows the code it unboxes ``delay`` seconds later.
    Returns (reason, code): ("ok", code) when the door admits, the door's
    refusal reason with None, or ("stale-code", code) when the guard
    refuses the code."""
    venue = session.identity
    channel, hello = open_channel(
        venue.advertisement, TrustMode.ISSUER_SIGNED, issuer_key=issuer_key, rng=rng,
    )
    venue_end = accept_channel(venue, hello)
    frame = submit_status(channel, status)
    decision, response = session.process_status(venue_end, frame, now)
    if not decision.accepted:
        return decision.reason, None
    code = receive_challenge(channel, holder_key, response)
    if not session.guard_check(code, now + delay):
        return "stale-code", code
    return "ok", code
