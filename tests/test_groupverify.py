"""Contactless admission: venue trust modes, the encrypted channel, the
anti-relay property, and rotating-code windows."""

import random

import pytest

from vaxcred import canonical
from vaxcred.coupons import issue_coupon_batch
from vaxcred.credentials import AppBinding, DoseInfo, Status, StatusPayload, VaccinationLevel
from vaxcred.crypto import VerifyingKey, encrypt_to, generate_keypair
from vaxcred.errors import (
    AuthFailureError,
    EmptyRequestError,
    SessionStateError,
    TrustFailureError,
    VaxError,
)
from vaxcred.groupverify import (
    TrustMode,
    VenueAdvertisement,
    accept_channel,
    check_advertisement,
    gate_round_trip,
    key_short_code,
    make_venue,
    open_channel,
    receive_challenge,
    render_code,
    submit_status,
    venue_start,
)
from vaxcred.vaccination import BadgeIssuer, PharmacySession
from vaxcred.wallet import store_credentials, wallet_init_app

ROTATION = 60


def _vaccinated_wallet(issuer, issuer_key, registry, rng, doses=2, start_index=0):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry, start_index=start_index)[0]
    session = PharmacySession(vk_issuer=issuer_key, registry=registry,
                              signer=BadgeIssuer(issuer, registry), rng=rng)
    wallet = wallet_init_app([("name", "Gate User"), ("dob", "1980-01-01")],
                             coupon=coupon, rng=rng)
    dose1 = DoseInfo(product="VX-ALPHA", lot="L-1", date="2021-02-01",
                     dose_number=1, site_id="S-01")
    badge, status = session.issue_credentials_app(
        coupon, dose1, wallet.pii_tree.root, wallet.verifying_key
    )
    store_credentials(wallet, badge, status)
    if doses == 2:
        dose2 = DoseInfo(product="VX-ALPHA", lot="L-2", date="2021-02-22",
                         dose_number=2, site_id="S-01")
        badge, status = session.second_dose(badge, dose2,
                                            user_key=wallet.verifying_key)
        store_credentials(wallet, badge, status)
    return wallet


@pytest.fixture
def venue(issuer, rng):
    return make_venue(issuer, "V-TEST", rng)


@pytest.fixture
def gate(venue, issuer_key, rng):
    return venue_start(venue, [issuer_key], required_level=VaccinationLevel.FULLY,
                       rotation_period=ROTATION, rng=rng)


def _run_admission(venue, gate, wallet, issuer_key, rng, now=1000.0):
    channel, hello = open_channel(venue.advertisement, TrustMode.ISSUER_SIGNED,
                                  issuer_key=issuer_key, rng=rng)
    venue_end = accept_channel(venue, hello)
    frame = submit_status(channel, wallet.status)
    decision, response = gate.process_status(venue_end, frame, now)
    return channel, decision, response


def test_advertisement_trust_modes(issuer, issuer_key, venue, rng):
    adv = venue.advertisement
    check_advertisement(adv, TrustMode.ISSUER_SIGNED, issuer_key=issuer_key)
    check_advertisement(adv, TrustMode.QR_PINNED, pinned_digest=adv.cert_digest())
    check_advertisement(adv, TrustMode.CODE_PINNED,
                        pinned_code=key_short_code(adv.channel_key))


def test_advertisement_rejects_wrong_anchor(issuer_key, venue, rng):
    adv = venue.advertisement
    _, other = generate_keypair(rng)
    with pytest.raises(TrustFailureError):
        check_advertisement(adv, TrustMode.ISSUER_SIGNED, issuer_key=other)
    with pytest.raises(TrustFailureError):
        check_advertisement(adv, TrustMode.QR_PINNED, pinned_digest=b"x" * 32)
    with pytest.raises(TrustFailureError):
        check_advertisement(adv, TrustMode.CODE_PINNED, pinned_code="AAAAAA")


def test_forged_advertisement_rejected(issuer, issuer_key, rng):
    venue = make_venue(issuer, "V-REAL", rng)
    adv = venue.advertisement
    evil_handle, evil_key = generate_keypair(rng)
    forged = VenueAdvertisement(venue_id=adv.venue_id, channel_key=evil_key,
                                cert=adv.cert)
    with pytest.raises(TrustFailureError):
        check_advertisement(forged, TrustMode.ISSUER_SIGNED, issuer_key=issuer_key)


def test_honest_vaccinated_admitted(issuer, issuer_key, registry, rng, venue, gate):
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    channel, decision, response = _run_admission(venue, gate, wallet,
                                                 issuer_key, rng)
    assert decision.accepted
    code = receive_challenge(channel, wallet.key, response)
    assert len(code) == 6 and set(code) <= set("ABCDEFGHIJKLMNOPQRSTUVWXYZ234567")
    assert gate.guard_check(code, 1005.0)


LOW_ORDER = bytes(32)  # an X25519 point of low order: it gives no shared secret


@pytest.mark.parametrize("place", ["hello", "advertisement", "encrypt-to", "holder-key"])
def test_hostile_keys_get_typed_errors(place, issuer, issuer_key, rng, venue, gate):
    """A low-order key is an AuthFailureError wherever a key is agreed
    with, and the door, which never raises on bad input, refuses a status
    whose holder key can receive nothing."""
    hostile = VerifyingKey(issuer_key.sig_bytes + LOW_ORDER)
    if place == "hello":
        hello = canonical.encode({"eph": LOW_ORDER, "venue": venue.venue_id})
        with pytest.raises(AuthFailureError):
            accept_channel(venue, hello)
    elif place == "advertisement":
        adv = VenueAdvertisement(venue_id="V-TEST", channel_key=hostile, cert=b"")
        with pytest.raises(AuthFailureError):
            open_channel(adv, TrustMode.QR_PINNED, pinned_digest=adv.cert_digest(), rng=rng)
    elif place == "encrypt-to":
        with pytest.raises(AuthFailureError):
            encrypt_to(hostile, b"code", rng=rng)
    else:
        payload = StatusPayload(level=VaccinationLevel.FULLY, date="2021-02-22",
                                binding=AppBinding(user_key=hostile, pii_root=bytes(32)))
        channel, hello = open_channel(venue.advertisement, TrustMode.ISSUER_SIGNED,
                                      issuer_key=issuer_key, rng=rng)
        frame = submit_status(channel, Status.sign(issuer, payload))
        decision, response = gate.process_status(accept_channel(venue, hello), frame, 1000.0)
        assert (decision.accepted, decision.reason, response) == (False, "no-holder-key", None)


def test_venue_start_refuses_no_accepted_keys(venue):
    with pytest.raises(EmptyRequestError):
        venue_start(venue, [])


def test_unvaccinated_rejected(issuer, issuer_key, registry, rng, venue, gate):
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng, doses=1)
    channel, decision, response = _run_admission(venue, gate, wallet,
                                                 issuer_key, rng)
    assert not decision.accepted
    assert decision.reason == "below-policy"
    assert response is None  # no challenge ever leaves the venue


def test_forged_status_rejected(issuer, issuer_key, registry, rng, venue, gate):
    from vaxcred.credentials import Status

    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    forged = Status(payload=wallet.status.payload, signature=b"\x01" * 64)
    channel, hello = open_channel(venue.advertisement, TrustMode.ISSUER_SIGNED,
                                  issuer_key=issuer_key, rng=rng)
    venue_end = accept_channel(venue, hello)
    frame = submit_status(channel, forged)
    decision, _ = gate.process_status(venue_end, frame, 1000.0)
    assert not decision.accepted and decision.reason == "bad-signature"


def test_mitm_relay_cannot_learn_code(issuer, issuer_key, registry, rng,
                                      venue, gate):
    """An attacker relaying a victim's status cannot decrypt the challenge:
    it is boxed to the key bound inside the signed status."""
    victim = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    attacker_handle, _ = generate_keypair(rng)
    channel, decision, response = _run_admission(venue, gate, victim,
                                                 issuer_key, rng)
    # the gate cannot tell yet: the status itself is genuine
    assert decision.accepted
    with pytest.raises(AuthFailureError):
        receive_challenge(channel, attacker_handle, response)


def test_codes_rotate_and_grace_window(issuer, issuer_key, registry, rng,
                                       venue, gate):
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    channel, decision, response = _run_admission(venue, gate, wallet,
                                                 issuer_key, rng, now=1000.0)
    code = receive_challenge(channel, wallet.key, response)
    assert gate.guard_check(code, 1000.0)  # same window
    assert gate.guard_check(code, 1000.0 + ROTATION)  # previous window: grace
    assert not gate.guard_check(code, 1000.0 + 2 * ROTATION)  # stale replay


def test_gate_round_trip_draws_as_the_steps_do(issuer, issuer_key, registry, rng,
                                                venue):
    """gate_round_trip draws from the rng in the order of the hand-written
    steps, and names a code the guard refuses "stale-code"."""
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    by_steps, by_helper = random.Random(5), random.Random(5)
    door = venue_start(venue, [issuer_key], rotation_period=ROTATION, rng=by_steps)
    channel, decision, response = _run_admission(venue, door, wallet, issuer_key, by_steps)
    code = receive_challenge(channel, wallet.key, response)
    door = venue_start(venue, [issuer_key], rotation_period=ROTATION, rng=by_helper)
    assert gate_round_trip(door, wallet.status, wallet.key, 1000.0, 5,
                           issuer_key=issuer_key, rng=by_helper) == ("ok", code)
    assert by_helper.getstate() == by_steps.getstate()

    assert gate_round_trip(door, wallet.status, wallet.key, 1000.0, 3 * ROTATION,
                           issuer_key=issuer_key, rng=rng)[0] == "stale-code"
    half = _vaccinated_wallet(issuer, issuer_key, registry, rng, doses=1, start_index=1)
    assert gate_round_trip(door, half.status, half.key, 1000.0, 5,
                           issuer_key=issuer_key, rng=rng) == ("below-policy", None)


def test_codes_differ_across_windows(gate):
    c1 = gate.current_code(0.0)
    assert c1 == gate.current_code(ROTATION - 1.0)  # stable within the window
    c2 = gate.current_code(float(ROTATION))
    c3 = gate.current_code(float(2 * ROTATION))
    assert len({c1, c2, c3}) >= 2  # 30-bit draws: a repeat across two
    # adjacent windows is astronomically unlikely, across three more so
    assert c2 != c1 or c3 != c2


def test_bad_guess_rejected(gate):
    code = gate.current_code(500.0)
    assert code != "ZZZZZZ" and not gate.guard_check("ZZZZZZ", 500.0)
    assert not gate.guard_check("", 500.0)
    assert not gate.guard_check(code + "A", 500.0)  # wrong length
    assert gate.guard_check(code.lower(), 500.0)  # guards uppercase for you


def test_channel_state_machine(issuer, issuer_key, registry, rng, venue, gate):
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    channel, hello = open_channel(venue.advertisement, TrustMode.ISSUER_SIGNED,
                                  issuer_key=issuer_key, rng=rng)
    venue_end = accept_channel(venue, hello)
    with pytest.raises(SessionStateError):
        receive_challenge(channel, wallet.key, b"xx")  # before submitting
    frame = submit_status(channel, wallet.status)
    with pytest.raises(SessionStateError):
        submit_status(channel, wallet.status)  # double submit
    decision, response = gate.process_status(venue_end, frame, 1000.0)
    code = receive_challenge(channel, wallet.key, response)
    assert gate.guard_check(code, 1000.0)
    channel.close()
    with pytest.raises(SessionStateError):
        receive_challenge(channel, wallet.key, response)


def test_channel_frames_tamper_rejected(issuer, issuer_key, registry, rng,
                                        venue, gate):
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    channel, hello = open_channel(venue.advertisement, TrustMode.ISSUER_SIGNED,
                                  issuer_key=issuer_key, rng=rng)
    venue_end = accept_channel(venue, hello)
    frame = bytearray(submit_status(channel, wallet.status))
    frame[5] ^= 0x10
    decision, response = gate.process_status(venue_end, bytes(frame), 1000.0)
    assert not decision.accepted and decision.reason == "garbled"
    assert response is None
    # the venue end closed the poisoned channel outright
    with pytest.raises(SessionStateError):
        gate.process_status(venue_end, bytes(frame), 1000.0)


def test_channel_is_confidential(issuer, issuer_key, registry, rng, venue, gate):
    wallet = _vaccinated_wallet(issuer, issuer_key, registry, rng)
    channel, hello = open_channel(venue.advertisement, TrustMode.ISSUER_SIGNED,
                                  issuer_key=issuer_key, rng=rng)
    frame = submit_status(channel, wallet.status)
    assert wallet.status.to_bytes() not in frame
    assert wallet.status.signature not in frame


def test_render_code_format():
    assert render_code(0) == "AAAAAA"
    assert render_code(2 ** 32 - 1) == "777777"  # top 30 bits, all ones
    assert render_code(1 << 27) == "BAAAAA"  # bit 27 is the first symbol's LSB
    codes = {render_code(k) for k in range(0, 1 << 32, (1 << 32) // 997)}
    assert all(len(c) == 6 and set(c) <= set(
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567") for c in codes)
    with pytest.raises(VaxError):
        render_code(1 << 32)


def test_advertisement_wire_round_trip(venue):
    adv = venue.advertisement
    again = VenueAdvertisement.from_wire(adv.to_wire())
    assert again.cert_digest() == adv.cert_digest()
