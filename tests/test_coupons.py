"""Eligibility coupons: issuance, signatures, ordered hand-out."""

import hashlib

import pytest

from vaxcred import canonical
from vaxcred.coupons import (
    Coupon,
    CouponPayload,
    DistributorBatch,
    EligibilityRecord,
    coupon_id,
    issue_coupon_batch,
    verify_coupon,
)
from vaxcred.errors import (
    BatchExhaustedError,
    CanonicalError,
    InvalidTransitionError,
    InvalidZipError,
    MismatchError,
    NotEligibleError,
    VaxError,
)


def _record(**kw):
    base = dict(subject_ref="S-1", zip_code="02139", job_type="healthcare",
                approved=True)
    base.update(kw)
    return EligibilityRecord(**base)


def test_payload_round_trip():
    payload = CouponPayload(index=7, zip_code="02139", job_type="healthcare")
    again = CouponPayload.from_bytes(payload.to_bytes())
    assert again == payload


def test_zip_validation():
    with pytest.raises(InvalidZipError):
        CouponPayload(index=0, zip_code="2139", job_type="healthcare")
    with pytest.raises(InvalidZipError):
        CouponPayload(index=0, zip_code="0213a", job_type="healthcare")
    with pytest.raises(InvalidZipError):
        CouponPayload(index=0, zip_code="021394", job_type="healthcare")
    with pytest.raises(InvalidZipError):
        CouponPayload(index=0, zip_code="02139\n", job_type="healthcare")


def test_coupon_id_is_payload_hash():
    payload = CouponPayload(index=3, zip_code="94110", job_type="transit")
    expected = hashlib.sha256(canonical.encode(payload.to_wire())).digest()
    assert coupon_id(payload) == expected


def test_issue_batch_signs_and_registers(issuer, issuer_key, registry):
    coupons = issue_coupon_batch(issuer, 5, "02139", "healthcare",
                                 registry=registry)
    assert len(coupons) == 5
    assert [c.payload.index for c in coupons] == list(range(5))
    for c in coupons:
        assert verify_coupon(issuer_key, c)
        assert not registry.check(c.coupon_id).is_used
    assert len(registry) == 5


def test_issue_batch_start_index(issuer, registry):
    coupons = issue_coupon_batch(issuer, 3, "02139", "healthcare",
                                 registry=registry, start_index=100)
    assert [c.payload.index for c in coupons] == [100, 101, 102]


def test_unknown_job_type_rejected(issuer):
    with pytest.raises(VaxError):
        issue_coupon_batch(issuer, 1, "02139", "astronaut")


def test_verify_rejects_tamper(issuer, issuer_key):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare")[0]
    forged = Coupon(
        payload=CouponPayload(index=1, zip_code="02139", job_type="healthcare"),
        signature=coupon.signature,
    )
    assert not verify_coupon(issuer_key, forged)
    flipped = Coupon(payload=coupon.payload,
                     signature=bytes([coupon.signature[0] ^ 1]) + coupon.signature[1:])
    assert not verify_coupon(issuer_key, flipped)


def test_reissued_batch_is_refused(issuer, tmp_path):
    """Signing is deterministic, so a batch over a range already issued
    would hand out the same coupons, one of them spent: it is refused, and
    the registry log is left as it was."""
    from vaxcred.registry import Registry, Stage

    path = tmp_path / "registry.log"
    with Registry(path) as registry:
        first = issue_coupon_batch(issuer, 3, "02139", "healthcare", registry=registry)
        registry.mark_used(first[0].coupon_id, 1, "2021-02-01", bytes(32), bytes(32))
        logged = path.read_bytes()
        with pytest.raises(InvalidTransitionError):
            issue_coupon_batch(issuer, 2, "02139", "healthcare", registry=registry,
                               start_index=2)
        assert path.read_bytes() == logged
        assert len(registry) == 3
        assert registry.check(first[0].coupon_id).stage is Stage.DOSE1


def test_verify_rejects_wrong_key(issuer, rng):
    from vaxcred.crypto import generate_keypair

    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare")[0]
    _, other = generate_keypair(rng)
    assert not verify_coupon(other, coupon)


def test_coupon_bytes_round_trip(issuer):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare")[0]
    assert Coupon.from_bytes(coupon.to_bytes()) == coupon


def test_distribute_in_index_order(issuer):
    coupons = issue_coupon_batch(issuer, 3, "02139", "healthcare")
    batch = DistributorBatch(coupons=list(reversed(coupons)))
    got = [batch.distribute(_record(subject_ref=f"S-{i}")) for i in range(3)]
    assert [c.payload.index for c in got] == [0, 1, 2]
    with pytest.raises(BatchExhaustedError):
        batch.distribute(_record())


def test_distribute_resumes_a_restored_batch(issuer):
    """A shuffled batch restored with some indices already released (as
    the CLI's state file restores it) hands out the lowest unreleased
    index, then each later one once, then reports exhaustion."""
    import random

    coupons = issue_coupon_batch(issuer, 6, "02139", "healthcare")
    random.Random(7).shuffle(coupons)
    batch = DistributorBatch(coupons=coupons, released={0, 1, 3})
    got = [batch.distribute(_record(subject_ref=f"S-{i}")).payload.index for i in range(3)]
    assert got == [2, 4, 5]
    assert batch.released == {0, 1, 2, 3, 4, 5}
    with pytest.raises(BatchExhaustedError):
        batch.distribute(_record())


def test_batch_refuses_a_released_index_it_does_not_hold(issuer):
    coupons = issue_coupon_batch(issuer, 2, "02139", "healthcare")
    with pytest.raises(CanonicalError):
        DistributorBatch(coupons=coupons, released={1, 99})


def test_distribute_rejects_unapproved(issuer):
    batch = DistributorBatch(coupons=issue_coupon_batch(issuer, 1, "02139", "healthcare"))
    with pytest.raises(NotEligibleError):
        batch.distribute(_record(approved=False))
    # the coupon was not consumed by the failed attempt
    assert batch.distribute(_record()).payload.index == 0


def test_distribute_rejects_allocation_mismatch(issuer):
    batch = DistributorBatch(coupons=issue_coupon_batch(issuer, 1, "02139", "healthcare"))
    with pytest.raises(MismatchError):
        batch.distribute(_record(zip_code="94110"))
    with pytest.raises(MismatchError):
        batch.distribute(_record(job_type="transit"))


def test_batch_rejects_duplicates_and_mixed(issuer):
    coupons = issue_coupon_batch(issuer, 2, "02139", "healthcare")
    with pytest.raises(VaxError):
        DistributorBatch(coupons=[coupons[0], coupons[0]])
    other = issue_coupon_batch(issuer, 1, "94110", "transit")
    with pytest.raises(VaxError):
        DistributorBatch(coupons=[coupons[0], other[0]])
