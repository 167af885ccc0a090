"""QR text codec and the TCP signing service (real sockets, loopback)."""

import json
import random
import socket
import struct
import sys
import threading
import time

import pytest

from vaxcred import canonical, service, vaccination
from vaxcred.coupons import issue_coupon_batch
from vaxcred.credentials import Badge, BadgeInfo, DoseInfo, Passkey, Status, VaccinationLevel
from vaxcred.crypto import generate_keypair, sha256
from vaxcred.errors import (
    AlreadyUsedError,
    CanonicalError,
    DecodeError,
    LengthExceededError,
    ServiceUnreachableError,
    SignatureInvalidError,
    UnknownPrefixError,
)
from vaxcred.merkle import (DisclosureProof, build_pii_tree,
                            prove_disclosure)
from vaxcred.registry import Registry, Stage
from vaxcred.qr import (
    MAX_QR_CHARS,
    MAX_URL_CHARS,
    decode_qr,
    encode_qr,
    export_coupon_url,
    import_coupon_url,
)
from vaxcred.service import (
    SigningClient,
    encode_request,
    handle_request_bytes,
    serve,
)
from vaxcred.vaccination import BadgeIssuer, PharmacySession


@pytest.fixture
def artifacts(issuer, issuer_key, registry, rng):
    """One of everything that can live in a QR code."""
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry)[0]
    pii = [("name", "Quercus Robur"), ("dob", "1972-09-09")]
    session = PharmacySession(vk_issuer=issuer_key, registry=registry,
                              signer=BadgeIssuer(issuer, registry), rng=rng)
    dose = DoseInfo(product="VX-ALPHA", lot="L-7", date="2021-03-03",
                    dose_number=1, site_id="S-02")
    badge, status, passkey = session.issue_credentials_paper(coupon, dose, pii)
    proof = prove_disclosure(build_pii_tree(pii, rng=rng), ["dob"])
    return coupon, badge, status, passkey, proof


def test_qr_round_trip_every_kind(artifacts):
    for obj in artifacts:
        text = encode_qr(obj)
        prefix, _, body = text.partition(":")
        assert prefix in {"CPN1", "BDG1", "STS1", "PSK1", "DSC1"}
        assert len(text) <= MAX_QR_CHARS
        assert "=" not in body  # unpadded
        back = decode_qr(text)
        assert type(back) is type(obj)
        assert back.to_bytes() == obj.to_bytes()


def test_qr_prefixes_are_distinct(artifacts):
    prefixes = {encode_qr(obj).partition(":")[0] for obj in artifacts}
    assert len(prefixes) == 5


def test_qr_case_insensitive(artifacts):
    coupon = artifacts[0]
    text = encode_qr(coupon)
    assert decode_qr(text.lower()).to_bytes() == coupon.to_bytes()


def test_qr_expect_pins_the_type(artifacts):
    coupon, badge = artifacts[0], artifacts[1]
    assert decode_qr(encode_qr(coupon), expect=type(coupon))
    with pytest.raises(UnknownPrefixError):
        decode_qr(encode_qr(badge), expect=type(coupon))


def test_qr_rejects_junk():
    with pytest.raises(UnknownPrefixError):
        decode_qr("XYZ9:AAAA")
    with pytest.raises(UnknownPrefixError):
        decode_qr("no separator here")
    with pytest.raises(DecodeError):
        decode_qr("CPN1:????")
    with pytest.raises(DecodeError):
        decode_qr("CPN1:")
    with pytest.raises(DecodeError):
        decode_qr(b"CPN1:AAAA")  # bytes, not text
    with pytest.raises(DecodeError):
        # valid base-32 of garbage bytes
        decode_qr("CPN1:AAAAAAAA")


def test_qr_length_cap(artifacts):
    with pytest.raises(LengthExceededError):
        decode_qr("CPN1:" + "A" * MAX_QR_CHARS)
    # a disclosure proof over absurdly long values blows the budget on encode
    tree = build_pii_tree([("blob", "x" * 4000)], rng=None)
    with pytest.raises(LengthExceededError):
        encode_qr(prove_disclosure(tree, ["blob"]))


def test_qr_keyed_decode_checks_signatures(artifacts, issuer_key, rng):
    coupon, badge, status = artifacts[0], artifacts[1], artifacts[2]
    assert decode_qr(encode_qr(coupon), coupon_key=issuer_key)
    assert decode_qr(encode_qr(badge), credential_key=issuer_key)
    assert decode_qr(encode_qr(status), credential_key=issuer_key)

    _, wrong = generate_keypair(rng)
    for obj, kw in ((coupon, "coupon_key"), (badge, "credential_key"),
                    (status, "credential_key")):
        with pytest.raises(SignatureInvalidError):
            decode_qr(encode_qr(obj), **{kw: wrong})


def test_envelope_constructors_check_the_signature(artifacts):
    """Coupon, Badge and Status refuse a signature that is not 64 bytes
    and a body of the wrong type when built, not only when decoded."""
    for obj in artifacts[:3]:
        cls, body = type(obj), obj.body
        with pytest.raises(CanonicalError):
            cls(body, obj.signature[:63])
        with pytest.raises(CanonicalError):
            cls(body, obj.signature.hex())
        with pytest.raises(CanonicalError):
            cls(artifacts[3], obj.signature)  # a passkey is no body
        assert cls(body, obj.signature) == obj


def test_decoded_envelopes_verify_over_the_bytes_received(artifacts, issuer_key,
                                                          monkeypatch):
    """A decoded envelope keeps its body's input bytes: verifying encodes
    nothing, and the kept bytes take no part in == or repr."""
    for obj in artifacts[:3]:
        raw = obj.to_bytes()
        decoded = type(obj).from_bytes(raw)
        assert decoded.body.to_bytes() in raw
        with monkeypatch.context() as m:
            m.setattr(canonical, "encode", None)  # any encode would fail
            assert decoded.verify(issuer_key)
        assert decoded == obj and repr(decoded) == repr(obj)


@pytest.fixture
def app_pair(issuer, issuer_key, registry, rng):
    """An app-variant badge and status, whose status carries a holder key."""
    coupon = issue_coupon_batch(issuer, 1, "02139", "retail",
                                registry=registry, start_index=40)[0]
    session = PharmacySession(vk_issuer=issuer_key, registry=registry,
                              signer=BadgeIssuer(issuer, registry), rng=rng)
    dose = DoseInfo(product="VX-ALPHA", lot="L-8", date="2021-03-04",
                    dose_number=1, site_id="S-02")
    tree = build_pii_tree([("name", "Acer Rubrum")], rng=rng)
    _, holder_key = generate_keypair(rng)
    return session.issue_credentials_app(coupon, dose, tree.root, holder_key)


def _map_paths(value, path=()):
    """The path of every map nested in a decoded value, itself included."""
    if isinstance(value, dict):
        yield path
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _map_paths(item, path + (key,))


def _with_extra_key(value, path):
    """A copy of a decoded value with one more key in the map at path."""
    if not path:
        return {**value, "x": b"hidden"}
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _with_extra_key(value[path[0]], path[1:])
    return copy


def test_every_nested_map_refuses_an_extra_key(artifacts, app_pair):
    """A decoded signed body keeps the bytes it arrived as, so each of its
    maps must be read whole: an unread key would ride along, signed."""
    for obj in (*artifacts, *app_pair):
        wire = canonical.decode(obj.to_bytes())
        for path in _map_paths(wire):
            data = canonical.encode(_with_extra_key(wire, path))
            with pytest.raises(CanonicalError):
                type(obj).from_bytes(data)


def test_signing_request_with_an_extra_key_is_refused(issuer, registry, app_pair):
    """A request whose holder key map carries an extra key, under a correct
    digest, gets no signature and leaves the registry untouched; the same
    request without the key is signed."""
    badge, status = app_pair
    coupon = issue_coupon_batch(issuer, 1, "02139", "retail",
                                registry=registry, start_index=41)[0]
    info = BadgeInfo(dose_history=badge.info.dose_history, coupon=coupon,
                     binding=badge.info.binding)
    frame = canonical.decode(encode_request(info, status.payload))

    def send(status_wire):
        body = {"badge": frame["badge"], "status": status_wire}
        request = {**body, "req": sha256(canonical.encode(body))}
        return canonical.decode(handle_request_bytes(
            BadgeIssuer(issuer, registry), canonical.encode(request)))

    out = send(_with_extra_key(frame["status"], ("binding", "key")))
    assert out == {"error": "canonical", "ok": False}
    assert not registry.check(coupon.coupon_id).is_used
    assert send(frame["status"])["ok"] is True


def test_qr_unencodable_type():
    with pytest.raises(UnknownPrefixError):
        encode_qr("just a string")


def test_coupon_url_round_trip(artifacts, issuer_key):
    coupon = artifacts[0]
    url = export_coupon_url(coupon)
    assert url.startswith("vax://c/")
    assert len(url) <= MAX_URL_CHARS
    back = import_coupon_url(url, coupon_key=issuer_key)
    assert back.to_bytes() == coupon.to_bytes()
    # scheme is case-insensitive, body is too
    assert import_coupon_url("VAX://C/" + url[len("vax://c/"):].lower())
    with pytest.raises(UnknownPrefixError):
        import_coupon_url("https://example.com/x")


# -- signing service over real sockets ----------------------------------------


@pytest.fixture
def live(issuer, issuer_key, registry, rng):
    server = serve(BadgeIssuer(issuer, registry))
    client = SigningClient("127.0.0.1", server.port, timeout=5.0)
    yield server, client
    client.close()
    server.shutdown()
    server.server_close()


def _pharmacy(issuer_key, registry, signer, rng):
    return PharmacySession(vk_issuer=issuer_key, registry=registry,
                           signer=signer, rng=rng)


def test_remote_signing_round_trip(issuer, issuer_key, registry, rng, live):
    server, client = live
    coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                registry=registry)[0]
    session = _pharmacy(issuer_key, registry, client, rng)
    dose = DoseInfo(product="VX-ALPHA", lot="L-9", date="2021-03-10",
                    dose_number=1, site_id="S-05")
    badge, status, passkey = session.issue_credentials_paper(
        coupon, dose, [("name", "Remote R"), ("dob", "1990-01-01")]
    )
    # the signatures came over the wire and still verify locally
    from vaxcred.verification import verify_badge, verify_status

    assert verify_badge(issuer_key, badge).level == VaccinationLevel.DOSE1
    assert verify_status(issuer_key, status) == VaccinationLevel.DOSE1


def test_remote_errors_surface_as_typed_exceptions(issuer, issuer_key,
                                                   registry, rng, live):
    server, client = live
    coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                registry=registry, start_index=10)[0]
    session = _pharmacy(issuer_key, registry, client, rng)
    dose = DoseInfo(product="VX-ALPHA", lot="L-9", date="2021-03-10",
                    dose_number=1, site_id="S-05")
    pii = [("name", "Again A"), ("dob", "1991-01-01")]
    session.issue_credentials_paper(coupon, dose, pii)
    with pytest.raises(AlreadyUsedError):
        # fresh tree salts make this a distinct request for the same coupon
        session.issue_credentials_paper(coupon, dose, pii)


def test_unreachable_service(issuer, issuer_key, registry, rng):
    coupon = issue_coupon_batch(issuer, 1, "02139", "retail",
                                registry=registry, start_index=40)[0]
    session = _pharmacy(issuer_key, registry,
                        SigningClient("127.0.0.1", 1, timeout=0.2), rng)
    dose = DoseInfo(product="VX-ALPHA", lot="L-2", date="2021-03-12",
                    dose_number=1, site_id="S-05")
    with pytest.raises(ServiceUnreachableError):
        session.issue_credentials_paper(
            coupon, dose, [("name", "Offline O"), ("dob", "1994-01-01")]
        )
    # nothing was burned: the coupon can still be redeemed later
    assert not registry.check(coupon.coupon_id).is_used


def test_request_digest_binds_the_payload(issuer, registry, rng):
    """Changing payload bytes without recomputing the digest is rejected."""
    back_issuer = BadgeIssuer(issuer, registry)
    response = handle_request_bytes(back_issuer, b"\x01\x05garbage")
    obj = canonical.decode(response)
    assert obj["ok"] is False and obj["error"] == "canonical"

    response = handle_request_bytes(
        back_issuer, canonical.encode({"badge": b"", "req": b"", "status": b""})
    )
    obj = canonical.decode(response)
    assert obj["ok"] is False

    response = handle_request_bytes(
        back_issuer, canonical.encode({"unexpected": 1})
    )
    assert canonical.decode(response)["ok"] is False


def test_digest_mismatch_rejected(issuer, issuer_key, registry, rng):
    coupon = issue_coupon_batch(issuer, 1, "02139", "retail",
                                registry=registry, start_index=20)[0]
    captured = {}

    class Capture:
        def sign_badge_request(self, badge_info, status_payload):
            captured["req"] = encode_request(badge_info, status_payload)
            raise CanonicalError("stop here")

    session = _pharmacy(issuer_key, registry, Capture(), rng)
    dose = DoseInfo(product="VX-ALPHA", lot="L-2", date="2021-03-11",
                    dose_number=1, site_id="S-05")
    with pytest.raises(CanonicalError):
        session.issue_credentials_paper(
            coupon, dose, [("name", "Digest D"), ("dob", "1993-01-01")]
        )

    obj = canonical.decode(captured["req"])
    assert set(obj) == {"badge", "req", "status"}
    assert obj["req"] == sha256(canonical.encode(
        {"badge": obj["badge"], "status": obj["status"]}
    ))
    # swap the two payloads but keep the stale digest: must be refused
    tampered = canonical.encode(
        {"badge": obj["status"], "req": obj["req"], "status": obj["badge"]}
    )
    out = canonical.decode(
        handle_request_bytes(BadgeIssuer(issuer, registry), tampered)
    )
    assert out["ok"] is False


def test_oversized_frame_closes_connection(live):
    server, client = live
    with socket.create_connection(("127.0.0.1", server.port), 2.0) as sock:
        sock.sendall(struct.pack(">I", 2 << 20))  # claims 2 MiB
        sock.sendall(b"x" * 64)
        sock.settimeout(2.0)
        try:
            leftover = sock.recv(4096)
        except (ConnectionError, socket.timeout):
            leftover = b""
        assert leftover == b""  # server hung up without answering


def test_frame_cap_applies_client_side(live):
    server, client = live
    with socket.create_connection(("127.0.0.1", server.port), 2.0):
        pass  # connect/disconnect is fine; the server stays up
    # follow-up request on a fresh connection still works
    response = handle_request_bytes(server.issuer, b"junk")
    assert canonical.decode(response)["ok"] is False


# -- one kept connection per client; a bounded server ---------------------------

DOSE1 = DoseInfo(product="VX-ALPHA", lot="L-3", date="2021-03-01",
                 dose_number=1, site_id="S-06")
DOSE2 = DoseInfo(product="VX-ALPHA", lot="L-4", date="2021-03-22",
                 dose_number=2, site_id="S-06")
PII = [("name", "Kept K"), ("dob", "1980-01-01")]


@pytest.fixture
def connects(monkeypatch):
    """The address of every connection a client opens."""
    made = []
    real = socket.create_connection

    def counting(address, *args, **kwargs):
        made.append(address)
        return real(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return made


def _wait_until(condition, limit=5.0):
    deadline = time.monotonic() + limit
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _reply_to(port, frame):
    """The server's first bytes back for one frame on a new connection;
    b"" when it closes the connection without answering."""
    with socket.create_connection(("127.0.0.1", port), 2.0) as sock:
        try:
            sock.sendall(struct.pack(">I", len(frame)) + frame)
            return sock.recv(4096)
        except ConnectionError:
            return b""


def test_one_connection_for_many_doses(issuer, issuer_key, registry, rng,
                                       live, connects):
    server, client = live
    session = _pharmacy(issuer_key, registry, client, rng)
    batch = issue_coupon_batch(issuer, 3, "02139", "transit",
                               registry=registry, start_index=50)
    for coupon in batch:
        badge, _, _ = session.issue_credentials_paper(coupon, DOSE1, PII)
        session.second_dose(badge, DOSE2)
    assert len(connects) == 1
    assert {registry.check(c.coupon_id).stage for c in batch} == {Stage.DOSE2}


def test_one_client_shared_by_threads(issuer, issuer_key, registry, live,
                                      connects):
    """Threads sharing a client take turns on its one connection: every
    dose lands once, and no reply goes to the wrong thread."""
    server, client = live
    batch = issue_coupon_batch(issuer, 24, "02139", "transit",
                               registry=registry, start_index=80)
    errors_seen = []

    def counter(k):
        session = _pharmacy(issuer_key, registry, client, random.Random(k))
        for coupon in batch[k::6]:
            try:
                badge, _, _ = session.issue_credentials_paper(coupon, DOSE1, PII)
                assert badge.info.coupon == coupon
            except Exception as exc:  # reported below, with the others
                errors_seen.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=counter, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors_seen == []
    assert {registry.check(c.coupon_id).stage for c in batch} == {Stage.DOSE1}
    assert len(connects) == 1


def test_dose_after_an_idle_close_is_resent(issuer, issuer_key, registry, rng,
                                            live, connects, monkeypatch):
    monkeypatch.setattr(service._Handler, "timeout", 0.2)
    server, client = live
    moves = []
    mark_used = registry.mark_used
    monkeypatch.setattr(registry, "mark_used",
                        lambda *a, **k: moves.append(mark_used(*a, **k)) or moves[-1])
    coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                registry=registry, start_index=55)[0]
    session = _pharmacy(issuer_key, registry, client, rng)
    badge, _, _ = session.issue_credentials_paper(coupon, DOSE1, PII)
    _wait_until(lambda: not server._live)  # the server closed the idle connection
    session.second_dose(badge, DOSE2)
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE2
    assert moves == [True, True]  # one transition per dose, none repeated
    assert len(connects) == 2


def test_reply_lost_after_the_registry_moved_is_resent(issuer, issuer_key, rng,
                                                       tmp_path, connects,
                                                       monkeypatch):
    """The server records the second dose and drops the connection before
    replying. The client re-sends the identical frame and gets the same
    signatures, and the log records the dose once."""
    replies = []
    handle = service.handle_request_bytes

    def lose_second_reply(issuer_, data):
        replies.append(handle(issuer_, data))
        if len(replies) == 2:
            raise ConnectionResetError("reply lost")
        return replies[-1]

    monkeypatch.setattr(service, "handle_request_bytes", lose_second_reply)
    log = tmp_path / "registry.jsonl"
    with Registry(log) as registry:
        coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                    registry=registry, start_index=60)[0]
        server = serve(BadgeIssuer(issuer, registry))
        client = SigningClient("127.0.0.1", server.port)
        try:
            session = _pharmacy(issuer_key, registry, client, rng)
            badge, _, _ = session.issue_credentials_paper(coupon, DOSE1, PII)
            badge2, status2 = session.second_dose(badge, DOSE2)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
    assert len(replies) == 3 and replies[2] == replies[1]
    answer = canonical.decode(replies[2])
    assert (answer["sb"], answer["ss"]) == (badge2.signature, status2.signature)
    ops = [json.loads(line)["op"] for line in log.read_text().splitlines()]
    assert ops == ["register", "dose1", "dose2"]
    assert len(connects) == 2


def test_reply_lost_on_a_new_connection_is_resent(issuer, issuer_key, rng,
                                                   tmp_path, connects, monkeypatch):
    """The server records the first dose and drops the client's first
    connection before replying. The client re-sends the identical frame on
    a second connection, the dose completes, and the coupon is not burned."""
    replies = []
    handle = service.handle_request_bytes

    def lose_first_reply(issuer_, data):
        replies.append(handle(issuer_, data))
        if len(replies) == 1:
            raise ConnectionResetError("reply lost")
        return replies[-1]

    monkeypatch.setattr(service, "handle_request_bytes", lose_first_reply)
    log = tmp_path / "registry.jsonl"
    with Registry(log) as registry:
        coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                    registry=registry, start_index=61)[0]
        server = serve(BadgeIssuer(issuer, registry))
        client = SigningClient("127.0.0.1", server.port)
        try:
            session = _pharmacy(issuer_key, registry, client, rng)
            badge, status, _ = session.issue_credentials_paper(coupon, DOSE1, PII)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
    assert len(replies) == 2 and replies[1] == replies[0]
    answer = canonical.decode(replies[1])
    assert (answer["sb"], answer["ss"]) == (badge.signature, status.signature)
    ops = [json.loads(line)["op"] for line in log.read_text().splitlines()]
    assert ops == ["register", "dose1"]
    assert len(connects) == 2


def test_more_kept_clients_than_the_cap_each_complete_doses(
        issuer, issuer_key, registry, monkeypatch):
    """Silent connections and kept clients past the cap do not lock a
    client out: a new connection takes the place of the one idle longest,
    and that one's client re-sends on its next request."""
    monkeypatch.setattr(service, "_MAX_CONNECTIONS", 2)
    server = serve(BadgeIssuer(issuer, registry))
    silent = [socket.create_connection(("127.0.0.1", server.port), 2.0)
              for _ in range(2)]
    clients = [SigningClient("127.0.0.1", server.port) for _ in range(3)]
    batch = issue_coupon_batch(issuer, 3, "02139", "transit",
                               registry=registry, start_index=65)
    try:
        sessions = [_pharmacy(issuer_key, registry, c, random.Random(k))
                    for k, c in enumerate(clients)]
        badges = [s.issue_credentials_paper(c, DOSE1, PII)[0]
                  for s, c in zip(sessions, batch)]
        for session, badge in zip(sessions, badges):
            session.second_dose(badge, DOSE2)
        assert len(server._live) <= 2
    finally:
        for sock in silent:
            sock.close()
        for client in clients:
            client.close()
        server.shutdown()
        server.server_close()
    assert {registry.check(c.coupon_id).stage for c in batch} == {Stage.DOSE2}


def test_connection_over_a_cap_of_busy_ones_is_closed_unanswered(
        issuer, issuer_key, registry, rng, live, monkeypatch):
    monkeypatch.setattr(service, "_MAX_CONNECTIONS", 1)
    server, client = live
    release, busy = threading.Event(), threading.Event()
    handle = service.handle_request_bytes

    def held(issuer_, data):
        busy.set()
        assert release.wait(5.0)
        return handle(issuer_, data)

    monkeypatch.setattr(service, "handle_request_bytes", held)
    coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                registry=registry, start_index=68)[0]
    session = _pharmacy(issuer_key, registry, client, rng)
    dose = threading.Thread(
        target=session.issue_credentials_paper, args=(coupon, DOSE1, PII))
    dose.start()
    try:
        assert busy.wait(5.0)  # the only place is serving a request
        assert _reply_to(server.port, b"junk") == b""
    finally:
        release.set()
        dose.join(5.0)
    assert registry.check(coupon.coupon_id).stage is Stage.DOSE1
    # the client's connection is idle now, so a new one takes its place
    assert _reply_to(server.port, b"junk") != b""


def test_silent_connection_closed_after_the_idle_limit(live, monkeypatch):
    monkeypatch.setattr(service._Handler, "timeout", 0.2)
    server, _ = live
    with socket.create_connection(("127.0.0.1", server.port), 5.0) as sock:
        t0 = time.monotonic()
        assert sock.recv(4096) == b""
        assert time.monotonic() - t0 < 3.0
    assert not server._live


def test_server_close_ends_live_connections(issuer, issuer_key, registry, rng):
    """Closing the server closes a client's idle kept connection, so no
    handler thread outlives it; the client's next request then re-sends
    once and reports the service unreachable."""
    server = serve(BadgeIssuer(issuer, registry))
    client = SigningClient("127.0.0.1", server.port)
    batch = issue_coupon_batch(issuer, 2, "02139", "transit",
                               registry=registry, start_index=70)
    session = _pharmacy(issuer_key, registry, client, rng)
    session.issue_credentials_paper(batch[0], DOSE1, PII)
    server.shutdown()
    closer = threading.Thread(target=server.server_close, daemon=True)
    closer.start()
    closer.join(5.0)
    assert not closer.is_alive()  # well inside the idle limit
    with pytest.raises(ServiceUnreachableError):
        session.issue_credentials_paper(batch[1], DOSE1, PII)
    client.close()
    assert not registry.check(batch[1].coupon_id).is_used


def test_server_derives_the_request_digest_once(issuer, issuer_key, registry,
                                                rng, monkeypatch):
    coupon = issue_coupon_batch(issuer, 1, "02139", "transit",
                                registry=registry, start_index=75)[0]
    frames = []

    class Capture:
        def sign_badge_request(self, badge_info, status_payload):
            frames.append(encode_request(badge_info, status_payload))
            raise CanonicalError("captured")

    with pytest.raises(CanonicalError):
        _pharmacy(issuer_key, registry, Capture(), rng).issue_credentials_paper(
            coupon, DOSE1, PII)
    calls = []
    signing_request = vaccination.signing_request

    def counting(*args):
        calls.append(args)
        return signing_request(*args)

    monkeypatch.setattr(service, "signing_request", counting)
    monkeypatch.setattr(vaccination, "signing_request", counting)
    out = canonical.decode(handle_request_bytes(BadgeIssuer(issuer, registry), frames[0]))
    assert out["ok"] is True
    assert len(calls) == 1
