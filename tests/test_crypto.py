"""Key handling, signatures, sealed boxes, and the tagged/salted hashes.

Hash oracles are recomputed here with hashlib directly so a regression in
the library's own helpers cannot hide itself.
"""

import hashlib
import random
import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcred import crypto
from vaxcred.crypto import (
    TAG_LEAF,
    TAG_NODE,
    TAG_PASSKEY,
    TAG_PII,
    KeyHandle,
    PkCiphertext,
    VerifyingKey,
    encrypt_to,
    ephemeral_agreement,
    generate_keypair,
    new_salt,
    salted_hash,
    sign_canonical,
    tagged_hash,
    verify,
    verify_canonical,
)
from vaxcred.errors import AuthFailureError, CanonicalError, VaxError


def test_generate_keypair_shapes(rng):
    handle, vk = generate_keypair(rng)
    assert isinstance(handle, KeyHandle)
    assert isinstance(vk, VerifyingKey)
    assert len(vk.key_bytes) == 64
    assert vk.scheme == "ed25519+x25519"
    assert handle.verifying_key == vk


def test_deterministic_keygen_from_seeded_rng():
    a = generate_keypair(random.Random(42))[1]
    b = generate_keypair(random.Random(42))[1]
    c = generate_keypair(random.Random(43))[1]
    assert a.key_bytes == b.key_bytes
    assert a.key_bytes != c.key_bytes


def test_sign_verify_round_trip(rng):
    handle, vk = generate_keypair(rng)
    payload = {"a": 1, "b": b"xy"}
    sig = sign_canonical(handle, payload)
    assert len(sig) == 64
    assert verify_canonical(vk, payload, sig)
    assert not verify_canonical(vk, {"a": 1, "b": b"xz"}, sig)


def test_signatures_deterministic(rng):
    handle, _ = generate_keypair(rng)
    payload = {"n": 7}
    assert sign_canonical(handle, payload) == sign_canonical(handle, payload)


def test_verify_rejects_wrong_key(rng):
    h1, _ = generate_keypair(rng)
    _, vk2 = generate_keypair(rng)
    sig = sign_canonical(h1, {"x": 1})
    assert not verify_canonical(vk2, {"x": 1}, sig)


def test_verify_rejects_mangled_signature(rng):
    handle, vk = generate_keypair(rng)
    sig = bytearray(sign_canonical(handle, {"x": 1}))
    sig[10] ^= 0x40
    assert not verify_canonical(vk, {"x": 1}, bytes(sig))
    assert not verify_canonical(vk, {"x": 1}, b"\x00" * 63)


def _signed(rng, n=1):
    """``n`` (key, message, signature) triples under one fresh key."""
    handle, vk = generate_keypair(rng)
    return [(vk, b"message %d" % i, handle.sign(b"message %d" % i)) for i in range(n)]


def test_a_repeat_verify_is_answered_from_memory(rng, ed25519_verifies):
    [(vk, msg, sig)] = _signed(rng)
    assert verify(vk, msg, sig) and verify(vk, msg, sig)
    assert len(ed25519_verifies) == 1 and len(crypto._verified) == 1


def test_a_remembered_success_admits_no_altered_triple(rng, ed25519_verifies):
    """After a cached success, a changed message byte, a flipped signature
    bit and another issuer's key are each verified and refused."""
    [(vk, msg, sig)] = _signed(rng)
    _, other = generate_keypair(rng)
    assert verify(vk, msg, sig)
    flipped = bytearray(sig)
    flipped[17] ^= 0x08
    altered = [(vk, b"n" + msg[1:], sig), (vk, msg, bytes(flipped)), (other, msg, sig)]
    for _ in range(2):
        for triple in altered:
            assert not verify(*triple)
    assert len(ed25519_verifies) == 1 + 2 * len(altered)
    assert verify(vk, msg, sig) and len(ed25519_verifies) == 7


def test_a_failed_verify_leaves_the_memory_unchanged(rng, ed25519_verifies):
    [(vk, msg, sig)] = _signed(rng)
    assert verify(vk, msg, sig)
    before = set(crypto._verified)
    assert not verify(vk, msg + b"!", sig)
    assert not verify(vk, msg, sig[:63])
    assert not verify(vk, "not bytes", sig)
    assert crypto._verified == before


def test_the_memory_holds_at_most_its_bound(rng, ed25519_verifies):
    triples = _signed(rng, crypto.VERIFIED_MAX + 1)
    sizes = []
    for triple in triples:
        assert verify(*triple)
        sizes.append(len(crypto._verified))
    assert max(sizes) == crypto.VERIFIED_MAX and sizes[-1] == 1


def test_threads_agree_with_uncached_verifies(rng, ed25519_verifies):
    """Eight threads verify one mixed list, each in its own order, while
    the memory fills: every answer is the uncached one."""
    good = _signed(rng, 12)
    bad = [(vk, msg + b"?", sig) for vk, msg, sig in good[:6]]
    bad += [(vk, msg, sig[::-1]) for vk, msg, sig in good[6:]]
    triples = good + bad
    expected = [i < len(good) for i in range(len(triples))]
    start = threading.Barrier(8)
    results = {}

    def worker(seed):
        order = list(range(len(triples))) * 3
        random.Random(seed).shuffle(order)
        start.wait()
        results[seed] = [(i, verify(*triples[i])) for i in order]

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for answers in results.values():
        assert all(ok == expected[i] for i, ok in answers)
    assert len(crypto._verified) == len(good)


def test_verifying_key_hex_round_trip(rng):
    _, vk = generate_keypair(rng)
    assert VerifyingKey.from_hex(vk.hex()) == vk
    with pytest.raises(VaxError):
        VerifyingKey.from_hex("abcd")
    with pytest.raises(VaxError):
        VerifyingKey.from_hex("zz" * 64)


def test_seal_unseal_round_trip(rng):
    handle, vk = generate_keypair(rng)
    blob = handle.seal("correct horse")
    restored = KeyHandle.unseal(blob, "correct horse")
    assert restored.verifying_key == vk
    # the restored handle signs identically
    assert sign_canonical(restored, {"m": 1}) == sign_canonical(handle, {"m": 1})


def test_unseal_wrong_passphrase(rng):
    handle, _ = generate_keypair(rng)
    blob = handle.seal("right")
    with pytest.raises(AuthFailureError):
        KeyHandle.unseal(blob, "wrong")


def test_unseal_tampered_blob(rng):
    handle, _ = generate_keypair(rng)
    blob = bytearray(handle.seal("pw"))
    blob[-1] ^= 0x01
    with pytest.raises((AuthFailureError, CanonicalError)):
        KeyHandle.unseal(bytes(blob), "pw")


@pytest.mark.parametrize("size", [0, 32, 63, 65])
def test_unseal_refuses_a_seed_that_is_not_64_bytes(size):
    """A key blob sealed with the right passphrase but holding a seed of
    another size raised ``ValueError`` from the key constructors."""
    blob = crypto.seal_with_passphrase(bytes(size), "pw", crypto._SEAL_INFO)
    with pytest.raises(CanonicalError):
        KeyHandle.unseal(blob, "pw")


def test_seal_blobs_differ_per_call(rng):
    handle, _ = generate_keypair(rng)
    assert handle.seal("pw") != handle.seal("pw")  # fresh salt + nonce


def test_encrypt_to_decrypt(rng):
    handle, vk = generate_keypair(rng)
    box = encrypt_to(vk, b"challenge-7", rng=rng)
    assert isinstance(box, PkCiphertext)
    assert handle.decrypt(box) == b"challenge-7"


def test_decrypt_wrong_recipient(rng):
    _, vk1 = generate_keypair(rng)
    h2, _ = generate_keypair(rng)
    box = encrypt_to(vk1, b"secret", rng=rng)
    with pytest.raises(AuthFailureError):
        h2.decrypt(box)


def test_pk_ciphertext_wire_round_trip(rng):
    handle, vk = generate_keypair(rng)
    box = encrypt_to(vk, b"abc", rng=rng)
    again = PkCiphertext.from_wire(box.to_wire())
    assert handle.decrypt(again) == b"abc"


def test_key_and_ciphertext_decoders_refuse_extra_keys(rng):
    _, vk = generate_keypair(rng)
    box = encrypt_to(vk, b"abc", rng=rng)
    for cls, wire in ((VerifyingKey, vk.to_wire()), (PkCiphertext, box.to_wire())):
        with pytest.raises(CanonicalError):
            cls.from_wire({**wire, "x": b"hidden"})
        with pytest.raises(CanonicalError):
            cls.from_wire(list(wire.items()))


def test_ciphertext_never_contains_plaintext(rng):
    _, vk = generate_keypair(rng)
    secret = b"very-identifiable-plaintext"
    box = encrypt_to(vk, secret, rng=rng)
    from vaxcred import canonical

    assert secret not in canonical.encode(box.to_wire())


def test_exchange_agrees_both_directions(rng):
    """Sender and holder derive the same bytes under one label, and
    different bytes under another; the holder never sees the raw secret."""
    handle, vk = generate_keypair(rng)
    eph_pub, key = ephemeral_agreement(vk, b"label/a", 64, rng)
    assert handle.derive(eph_pub, b"label/a", 64) == key
    assert handle.derive(eph_pub, b"label/b", 64) != key
    with pytest.raises(AuthFailureError):
        handle.derive(b"short", b"label/a")


def test_salted_hash_oracle():
    value, salt = b"Jane Roe", bytes(range(16))
    expected = hashlib.sha256(
        bytes([0x02]) + struct.pack(">I", len(value)) + value + salt
    ).digest()
    assert salted_hash(value, salt) == expected


def test_salted_hash_salt_sensitivity(rng):
    v = b"same value"
    assert salted_hash(v, new_salt(rng)) != salted_hash(v, new_salt(rng))


def test_tagged_hash_domain_separation():
    data = b"payload"
    digests = {tagged_hash(t, data) for t in (TAG_LEAF, TAG_NODE, TAG_PII, TAG_PASSKEY)}
    assert len(digests) == 4
    assert tagged_hash(TAG_LEAF, data) == hashlib.sha256(b"\x00" + data).digest()
    assert tagged_hash(TAG_NODE, data) == hashlib.sha256(b"\x01" + data).digest()


TAGS = [bytes([tag]) for tag in range(7)]  # the seven domain tags, 0x00 to 0x06


@given(st.sampled_from(TAGS), st.lists(st.binary(max_size=80), max_size=4))
@settings(max_examples=200, deadline=None)
def test_tagged_hash_matches_hashlib(tag, parts):
    """Each call hashes in a copy of the tag's primed context: the parts
    land after the tag, in order, and no call sees another's input."""
    assert tagged_hash(tag, *parts) == hashlib.sha256(tag + b"".join(parts)).digest()
    assert crypto.sha256(b"".join(parts)) == hashlib.sha256(b"".join(parts)).digest()


def test_tagged_hash_refuses_a_tag_it_does_not_know():
    for tag in (b"\x07", b"", b"\x00\x00", "\x00"):
        with pytest.raises(VaxError):
            tagged_hash(tag, b"payload")


def test_threads_share_the_primed_contexts():
    """Eight threads copy the same primed contexts at once; each digest is
    still the oracle's."""
    jobs = [(TAGS[i % 7], [bytes([i % 251]) * (i % 97), i.to_bytes(4, "big")])
            for i in range(2000)]
    expected = [hashlib.sha256(tag + b"".join(parts)).digest() for tag, parts in jobs]
    results = [None] * 8
    barrier = threading.Barrier(8)

    def work(k):
        barrier.wait(timeout=10)
        results[k] = [tagged_hash(tag, *parts) for tag, parts in jobs]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8


@given(st.binary(max_size=40), st.binary(max_size=40))
@settings(max_examples=200, deadline=None)
def test_digests_equal_is_equality(a, b):
    assert crypto.digests_equal(a, b) == (a == b)
    assert crypto.digests_equal(a, a)
    assert not crypto.digests_equal(a, a + b"\x00")  # unequal lengths


def test_new_salt_length_and_freshness(rng):
    salts = {new_salt(rng) for _ in range(64)}
    assert all(len(s) == 16 for s in salts)
    assert len(salts) == 64


@given(st.binary(max_size=128), st.binary(min_size=16, max_size=16))
@settings(max_examples=100, deadline=None)
def test_salted_hash_matches_hashlib(value, salt):
    expected = hashlib.sha256(
        b"\x02" + struct.pack(">I", len(value)) + value + salt
    ).digest()
    assert salted_hash(value, salt) == expected
