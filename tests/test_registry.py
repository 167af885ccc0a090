"""Registry: transition rules, durability, concurrency, idempotent retry."""

import fcntl
import hashlib
import json
import os
import threading

import pytest

from vaxcred.errors import (
    AlreadyUsedError,
    CanonicalError,
    DismantledError,
    InvalidTransitionError,
    UnknownCouponError,
)
from vaxcred.registry import CouponState, Registry, Stage


def _cid(n: int) -> bytes:
    return hashlib.sha256(f"coupon-{n}".encode()).digest()


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def test_register_and_check(registry):
    registry.register(_cid(1))
    assert registry.known(_cid(1))
    assert registry.check(_cid(1)).stage is Stage.UNUSED
    assert not registry.known(_cid(2))
    with pytest.raises(UnknownCouponError):
        registry.check(_cid(2))


def test_register_idempotent(registry):
    registry.register(_cid(1))
    registry.mark_used(_cid(1), 1, date="2021-01-05")
    registry.register(_cid(1))  # re-register never downgrades
    assert registry.check(_cid(1)).stage is Stage.DOSE1


def test_happy_path_transitions(registry):
    registry.register(_cid(1))
    assert registry.mark_used(_cid(1), 1, date="2021-01-05") is True
    assert registry.check(_cid(1)).stage is Stage.DOSE1
    assert registry.mark_used(_cid(1), 2, date="2021-01-26") is True
    assert registry.check(_cid(1)).stage is Stage.DOSE2


def test_double_spend_rejected(registry):
    registry.register(_cid(1))
    registry.mark_used(_cid(1), 1, request_digest=_digest("r1"))
    with pytest.raises(AlreadyUsedError):
        registry.mark_used(_cid(1), 1, request_digest=_digest("r2"))
    registry.mark_used(_cid(1), 2, request_digest=_digest("r3"))
    with pytest.raises(AlreadyUsedError):
        registry.mark_used(_cid(1), 2, request_digest=_digest("r4"))


def test_dose2_requires_dose1(registry):
    registry.register(_cid(1))
    with pytest.raises(InvalidTransitionError):
        registry.mark_used(_cid(1), 2)
    with pytest.raises(InvalidTransitionError):
        registry.mark_used(_cid(1), 3)


def test_idempotent_retry_same_request(registry):
    registry.register(_cid(1))
    req = _digest("request-a")
    assert registry.mark_used(_cid(1), 1, request_digest=req) is True
    # the exact same request again: recognized, not a double spend
    assert registry.mark_used(_cid(1), 1, request_digest=req) is False
    assert registry.check(_cid(1)).stage is Stage.DOSE1
    # but without a digest there is no way to prove it is a retry
    with pytest.raises(AlreadyUsedError):
        registry.mark_used(_cid(1), 1)


def test_unknown_coupon(registry):
    with pytest.raises(UnknownCouponError):
        registry.mark_used(_cid(9), 1)


def test_concurrent_single_winner(registry):
    """8 distinct requests per coupon race; exactly one transition wins."""
    n_coupons, n_threads = 50, 8
    for i in range(n_coupons):
        registry.register(_cid(i))
    wins = [0] * n_coupons
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def worker(t):
        barrier.wait()
        for i in range(n_coupons):
            try:
                if registry.mark_used(_cid(i), 1, request_digest=_digest(f"{i}/{t}")):
                    with lock:
                        wins[i] += 1
            except AlreadyUsedError:
                pass

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert wins == [1] * n_coupons


def test_log_replay_equivalence(tmp_path):
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        for i in range(5):
            reg.register(_cid(i))
        reg.mark_used(_cid(0), 1, date="2021-01-05", request_digest=_digest("a"))
        reg.mark_used(_cid(0), 2, date="2021-01-26", request_digest=_digest("b"))
        reg.mark_used(_cid(1), 1, date="2021-01-06")
        before = reg.snapshot()
    with Registry(path) as again:
        assert again.snapshot() == before
        assert again.check(_cid(0)).stage is Stage.DOSE2
        assert again.check(_cid(1)).stage is Stage.DOSE1
        assert again.check(_cid(2)).stage is Stage.UNUSED
        # the recorded request digest still collapses a post-crash retry
        assert again.mark_used(_cid(0), 1, request_digest=_digest("a")) is False


def test_torn_final_line_tolerated(tmp_path):
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(_cid(0))
        reg.register(_cid(1))
        reg.mark_used(_cid(0), 1)
    raw = path.read_bytes()
    path.write_bytes(raw + b'{"cid": "dead', )  # torn write, no newline
    with Registry(path) as again:
        assert again.check(_cid(0)).stage is Stage.DOSE1
        assert again.known(_cid(1))


def test_torn_tail_is_cut_before_the_next_append(tmp_path):
    """The append after a torn tail starts on its own line, so a second
    reopen still reads it."""
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(_cid(0))
        reg.register(_cid(1))
        reg.mark_used(_cid(0), 1)
    path.write_bytes(path.read_bytes() + b'{"cid": "dead')  # torn write, no newline
    with Registry(path) as again:
        again.mark_used(_cid(1), 1, date="2021-01-07")
    with Registry(path) as third:
        assert third.check(_cid(0)).stage is Stage.DOSE1
        assert third.check(_cid(1)) == CouponState(Stage.DOSE1, "2021-01-07")
    assert b"dead" not in path.read_bytes()


def test_replay_runs_without_the_file_lock(tmp_path, monkeypatch):
    """Opening holds the log's lock only to read it and cut a torn tail,
    so an append from another process does not wait for the replay."""
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register_many([_cid(i) for i in range(3)])
    path.write_bytes(path.read_bytes() + b'{"cid": "dead')  # torn write, no newline
    free = []
    apply = Registry._apply

    def probing(self, record):
        with open(path, "ab") as other:
            try:
                fcntl.flock(other.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                free.append(False)
            else:
                free.append(True)
                fcntl.flock(other.fileno(), fcntl.LOCK_UN)
        apply(self, record)

    monkeypatch.setattr(Registry, "_apply", probing)
    with Registry(path) as again:
        assert len(again) == 3
    assert free == [True, True, True]
    assert b"dead" not in path.read_bytes()


def test_register_many_writes_once(tmp_path, monkeypatch):
    """A batch is one write and one fsync; ids already known, or repeated
    in the batch, are left as they are and logged once."""
    path = tmp_path / "reg.log"
    fsyncs = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or fsync(fd))
    with Registry(path) as reg:
        reg.register(_cid(0))
        reg.mark_used(_cid(0), 1, date="2021-01-05")
        del fsyncs[:]
        reg.register_many([_cid(i) for i in range(50)] + [_cid(3)])
        assert len(fsyncs) == 1
        reg.register_many([_cid(0), _cid(7)])  # nothing new: no write
        assert len(fsyncs) == 1
        assert reg.check(_cid(0)).stage is Stage.DOSE1
        assert len(reg) == 50
        before = reg.snapshot()
        with pytest.raises(CanonicalError):
            reg.register_many([_cid(60), b"short"])
        assert not reg.known(_cid(60))  # a bad id refuses the whole batch
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 49
    assert json.loads(lines[-1]) == {"cid": _cid(49).hex(), "date": None,
                                     "op": "register", "seq": 51}
    with Registry(path) as again:
        assert again.snapshot() == before


def test_corrupt_middle_line_rejected(tmp_path):
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(_cid(0))
        reg.mark_used(_cid(0), 1)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"cid": "feedface"}\n'
    path.write_bytes(b"".join(lines))
    with pytest.raises(Exception):
        Registry(path)


def test_dismantle(tmp_path):
    path = tmp_path / "reg.log"
    reg = Registry(path)
    for i in range(3):
        reg.register(_cid(i))
    reg.mark_used(_cid(0), 1)
    with pytest.raises(InvalidTransitionError):
        reg.dismantle()  # requires explicit administrative intent
    reg.dismantle(administrative=True)
    assert reg.dismantled
    with pytest.raises(DismantledError):
        reg.check(_cid(0))
    with pytest.raises(DismantledError):
        reg.register(_cid(9))
    with pytest.raises(DismantledError):
        reg.mark_used(_cid(0), 2)
    # the log holds only the marker: coupon ids are gone from disk
    raw = path.read_bytes()
    assert _cid(0).hex().encode() not in raw
    assert raw.count(b"\n") == 1
    reg.close()
    with Registry(path) as again:
        assert again.dismantled


def test_len_and_snapshot(registry):
    assert len(registry) == 0
    registry.register(_cid(0))
    registry.register(_cid(1))
    assert len(registry) == 2
    snap = registry.snapshot()
    registry.mark_used(_cid(0), 1)
    assert snap != registry.snapshot()  # snapshot is a copy, not a view


def test_wrong_cid_type_rejected(registry):
    with pytest.raises(Exception):
        registry.register("not-bytes")
