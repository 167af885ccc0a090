"""Registry: transition rules, durability, concurrency, idempotent retry."""

import builtins
import errno
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import pytest

from vaxcred import durable
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


def _coupon(n: int) -> tuple:
    """(id, signature digest) of a stand-in coupon, as a batch registers it."""
    return _cid(n), hashlib.sha256(f"signature-{n}".encode()).digest()


def _digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def test_register_and_check(registry):
    registry.register(*_coupon(1))
    assert registry.known(_cid(1))
    assert registry.check(_cid(1)).stage is Stage.UNUSED
    assert not registry.known(_cid(2))
    with pytest.raises(UnknownCouponError):
        registry.check(_cid(2))


def test_register_known_id_refused(registry):
    """Re-registering a coupon, as a re-issued batch would, is an error
    that leaves every coupon as it was, so a spent one is never handed
    out as new; a batch naming one id twice is refused too."""
    registry.register(*_coupon(1))
    registry.mark_used(_cid(1), 1, date="2021-01-05")
    with pytest.raises(InvalidTransitionError):
        registry.register(*_coupon(1))
    with pytest.raises(InvalidTransitionError):
        registry.register_many([_coupon(2), _coupon(1)])
    with pytest.raises(InvalidTransitionError):
        registry.register_many([_coupon(3), _coupon(3)])
    assert registry.check(_cid(1)).stage is Stage.DOSE1
    assert not registry.known(_cid(2)) and not registry.known(_cid(3))


def test_match_needs_id_and_signature_digest(registry):
    cid, sig = _coupon(1)
    registry.register(cid, sig)
    assert registry.match(cid, sig) == CouponState(Stage.UNUSED)
    registry.mark_used(cid, 1, date="2021-01-05")
    assert registry.match(cid, sig) == CouponState(Stage.DOSE1, "2021-01-05")
    assert registry.match(cid, _coupon(2)[1]) is None
    assert registry.match(_cid(2), sig) is None
    registry.dismantle(administrative=True)
    assert registry.match(cid, sig) is None  # no raise: callers pick the error


def test_happy_path_transitions(registry):
    registry.register(*_coupon(1))
    assert registry.mark_used(_cid(1), 1, date="2021-01-05") is True
    assert registry.check(_cid(1)).stage is Stage.DOSE1
    assert registry.mark_used(_cid(1), 2, date="2021-01-26") is True
    assert registry.check(_cid(1)).stage is Stage.DOSE2


def test_double_spend_rejected(registry):
    registry.register(*_coupon(1))
    registry.mark_used(_cid(1), 1, request_digest=_digest("r1"))
    with pytest.raises(AlreadyUsedError):
        registry.mark_used(_cid(1), 1, request_digest=_digest("r2"))
    registry.mark_used(_cid(1), 2, request_digest=_digest("r3"))
    with pytest.raises(AlreadyUsedError):
        registry.mark_used(_cid(1), 2, request_digest=_digest("r4"))


def test_dose2_requires_dose1(registry):
    registry.register(*_coupon(1))
    with pytest.raises(InvalidTransitionError):
        registry.mark_used(_cid(1), 2)
    with pytest.raises(InvalidTransitionError):
        registry.mark_used(_cid(1), 3)


def test_idempotent_retry_same_request(registry):
    registry.register(*_coupon(1))
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
        registry.register(*_coupon(i))
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
            reg.register(*_coupon(i))
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
        reg.register(*_coupon(0))
        reg.register(*_coupon(1))
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
        reg.register(*_coupon(0))
        reg.register(*_coupon(1))
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
        reg.register_many([_coupon(i) for i in range(3)])
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
    assert free == [True]
    assert b"dead" not in path.read_bytes()


@pytest.mark.parametrize("given", [{"badge_digest": b"short"}, {"request_digest": b"short"},
                                   {"date": 20210105}], ids=["badge", "request", "date"])
def test_a_dose_the_registry_cannot_hold_is_refused_before_its_write(tmp_path, given):
    """A digest of another length than 32 bytes, or a date that is not
    text, is refused before anything is written. A short badge digest was
    once logged and then refused by the replay of its own record, so the
    log no longer opened."""
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(*_coupon(0))
        before = path.read_bytes()
        with pytest.raises(CanonicalError):
            reg.mark_used(_cid(0), 1, **given)
        assert reg.check(_cid(0)).stage is Stage.UNUSED
    assert path.read_bytes() == before
    with Registry(path) as again:
        assert again.mark_used(_cid(0), 1, date="2021-01-05") is True


def test_a_dismantle_between_the_lock_and_the_replay(tmp_path, monkeypatch):
    """Opening replays after letting the lock go. A dismantle in that gap
    replaces the file: the replay still reads the old bytes whole, and
    the next transition sees the marker."""
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register_many([_coupon(i) for i in range(3)])
        reg.mark_used(_cid(0), 1, date="2021-01-05")
    replay = Registry._replay

    def racing(self, records):
        monkeypatch.setattr(Registry, "_replay", replay)
        with Registry(path) as other:
            other.dismantle(administrative=True)
        replay(self, records)

    monkeypatch.setattr(Registry, "_replay", racing)
    with Registry(path) as reg:
        assert len(reg) == 3 and reg.check(_cid(0)) == CouponState(Stage.DOSE1, "2021-01-05")
        with pytest.raises(DismantledError):
            reg.mark_used(_cid(1), 1)
        assert reg.dismantled and len(reg) == 0


def _traced(build):
    """What ``build()`` returns, with the bytes it left allocated and the
    most it had allocated at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        built = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, held, peak


def test_a_reopen_peaks_at_twice_the_longest_line_above_its_state(tmp_path):
    """The log is read a chunk at a time, so reopening it costs, above the
    state it builds, at most 256 KiB plus twice its longest line (here a
    batch's record), however large the file."""
    batches = [[_coupon(i) for i in range(b, b + 5000)] for b in (0, 5000)]
    records = [{"coupons": b"".join(c + d for c, d in batch).hex(), "op": "register",
                "seq": seq} for seq, batch in enumerate(batches, 1)]
    records += [{"badge": _digest(f"badge-{i}").hex(), "cid": _cid(i).hex(), "date": "2021-01-05",
                 "op": "dose1", "req": _digest(f"req-{i}").hex(), "seq": i + 3}
                for i in range(6000)]
    data = durable.dump_lines(records)
    path = tmp_path / "reg.log"
    path.write_bytes(data)
    assert len(data) > 2_000_000
    reg, held, peak = _traced(lambda: Registry(path))
    reg.close()
    assert len(reg) == 10_000 and reg.check(_cid(5999)).stage is Stage.DOSE1
    assert peak - held <= 256 * 1024 + 2 * max(map(len, data.splitlines()))


def test_a_coupon_is_held_in_at_most_200_bytes_and_300_once_dosed(tmp_path):
    """Each coupon is one packed value: 34 bytes registered, 108 after a
    first dose with its request digest, badge digest and date."""
    n = 20_000
    coupons = [_coupon(i) for i in range(n)]
    reg, registered, _ = _traced(lambda: _registered(coupons))
    assert len(reg) == n and registered / n <= 200
    records = [{"coupons": b"".join(c + d for c, d in coupons).hex(), "op": "register", "seq": 1}]
    records += [{"badge": sig.hex(), "cid": cid.hex(), "date": "2021-01-05", "op": "dose1",
                 "req": _digest(f"request-{i}").hex(), "seq": i + 2}
                for i, (cid, sig) in enumerate(coupons)]
    path = tmp_path / "reg.log"
    path.write_bytes(durable.dump_lines(records))
    reg, dosed, _ = _traced(lambda: Registry(path))
    reg.close()
    assert reg.match_badge(*coupons[-1]) == CouponState(Stage.DOSE1, "2021-01-05")
    assert dosed / n <= 300


def _registered(coupons) -> Registry:
    reg = Registry()
    reg.register_many(coupons)
    return reg


def test_register_many_writes_once(tmp_path, monkeypatch):
    """A batch is one write and one fsync; a batch naming a known id, one
    id twice or a malformed pair writes nothing."""
    path = tmp_path / "reg.log"
    fsyncs = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or fsync(fd))
    with Registry(path) as reg:
        reg.register(*_coupon(0))
        reg.mark_used(_cid(0), 1, date="2021-01-05")
        del fsyncs[:]
        reg.register_many([_coupon(i) for i in range(1, 50)])
        assert len(fsyncs) == 1
        with pytest.raises(InvalidTransitionError):
            reg.register_many([_coupon(60), _coupon(0)])
        with pytest.raises(InvalidTransitionError):
            reg.register_many([_coupon(61), _coupon(61)])
        assert len(fsyncs) == 1
        assert reg.check(_cid(0)).stage is Stage.DOSE1
        assert len(reg) == 50
        before = reg.snapshot()
        with pytest.raises(CanonicalError):
            reg.register_many([_coupon(60), (b"short", _coupon(60)[1])])
        with pytest.raises(CanonicalError):
            reg.register_many([(_cid(60), b"short")])
        assert not reg.known(_cid(60))  # a bad pair refuses the whole batch
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 1
    batch = b"".join(c + d for c, d in (_coupon(i) for i in range(1, 50)))
    assert json.loads(lines[-1]) == {"coupons": batch.hex(), "op": "register", "seq": 3}
    with Registry(path) as again:
        assert again.snapshot() == before


def test_replays_a_log_from_before_batches(tmp_path):
    """Older logs hold one register record per coupon, with a signature
    digest or, older still, without one; they replay as before, and new
    records continue their numbering."""
    path = tmp_path / "reg.log"
    old = [{"cid": _cid(0).hex(), "date": None, "op": "register",
            "sig_digest": _coupon(0)[1].hex(), "seq": 1},
           {"cid": _cid(1).hex(), "date": None, "op": "register", "seq": 2},
           {"cid": _cid(0).hex(), "date": "2021-01-05", "op": "dose1", "seq": 3}]
    path.write_text("".join(json.dumps(r) + "\n" for r in old))
    with Registry(path) as reg:
        assert reg.match(*_coupon(0)) == CouponState(Stage.DOSE1, "2021-01-05")
        assert reg.match(*_coupon(1)) is None and reg.check(_cid(1)).stage is Stage.UNUSED
        reg.register_many([_coupon(2), _coupon(3)])
    assert json.loads(path.read_text().splitlines()[-1])["seq"] == 4
    with Registry(path) as again:
        assert len(again) == 4 and again.match(*_coupon(3)) == CouponState(Stage.UNUSED)


def test_badge_digest_is_logged_at_dose1_and_replayed(tmp_path):
    """A first dose logs the badge digest it is given; a reopened handle
    matches it, a log without it matches nothing, and a dismantled
    registry matches nothing."""
    path, badge = tmp_path / "reg.log", bytes(range(32))
    with Registry(path) as reg:
        reg.register_many([_coupon(0), _coupon(1)])
        reg.mark_used(_cid(0), 1, date="2021-01-05", badge_digest=badge)
        reg.mark_used(_cid(1), 1, date="2021-01-05")
        reg.mark_used(_cid(0), 2, date="2021-01-26", badge_digest=badge)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r.get("badge") for r in records[1:]] == [badge.hex(), None, None]
    with Registry(path) as reg:
        assert reg.match_badge(_cid(0), badge) == CouponState(Stage.DOSE2, "2021-01-26")
        assert reg.match_badge(_cid(0), bytes(32)) is None
        assert reg.match_badge(_cid(1), badge) is None
        assert reg.check(_cid(1)) == CouponState(Stage.DOSE1, "2021-01-05")
        reg.dismantle(administrative=True)
        assert reg.match_badge(_cid(0), badge) is None


def test_a_failed_append_leaves_memory_as_it_was(tmp_path, monkeypatch):
    """A transition whose fsync fails, as on a full disk, changes neither
    the log nor memory, so the holder's next request is served rather than
    refused as already-used."""
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(*_coupon(0))
        before = path.read_bytes()

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(os, "fsync", no_space)
            with pytest.raises(OSError):
                reg.mark_used(_cid(0), 1, request_digest=_digest("first"))
            with pytest.raises(OSError):
                reg.register_many([_coupon(1), _coupon(2)])
        assert path.read_bytes() == before
        assert reg.check(_cid(0)).stage is Stage.UNUSED and not reg.known(_cid(1))
        assert reg.mark_used(_cid(0), 1, request_digest=_digest("second")) is True
        reg.register_many([_coupon(1), _coupon(2)])
        live = reg.snapshot()
    with Registry(path) as again:
        assert again.snapshot() == live


def test_handles_on_one_log_see_each_other(tmp_path, monkeypatch):
    """Each handle decides under the log's lock after applying what the
    others appended: one winner and one numbering per log, a batch found
    on a miss, and a dismantle seen through the replaced file. A query
    that hits takes no file lock."""
    path = tmp_path / "reg.log"
    with Registry(path) as a, Registry(path) as b:
        b.register_many([_coupon(0), _coupon(1)])
        assert a.check(_cid(0)).stage is Stage.UNUSED
        assert a.mark_used(_cid(0), 1, date="2021-01-05", request_digest=_digest("a")) is True
        with pytest.raises(AlreadyUsedError):
            b.mark_used(_cid(0), 1, request_digest=_digest("b"))
        assert b.mark_used(_cid(0), 1, request_digest=_digest("a")) is False
        with pytest.raises(InvalidTransitionError):
            a.register(*_coupon(1))
        seqs = [json.loads(line)["seq"] for line in path.read_text().splitlines()]
        assert seqs == [1, 2]
        locks, flock = [], fcntl.flock
        with monkeypatch.context() as m:
            m.setattr(fcntl, "flock", lambda fd, op: locks.append(op) or flock(fd, op))
            assert b.check(_cid(0)) == CouponState(Stage.DOSE1, "2021-01-05")
            assert a.match(*_coupon(1)) == CouponState(Stage.UNUSED)
            assert locks == []
            assert not a.known(_cid(9)) and locks
        b.dismantle(administrative=True)
        with pytest.raises(DismantledError):
            a.mark_used(_cid(1), 1)
        assert a.dismantled and a.match(*_coupon(1)) is None


# a racer: open a handle, report ready, wait for the go, then try to move
# every coupon with a request digest of its own
_RACER = """
import hashlib, sys
from vaxcred.errors import AlreadyUsedError
from vaxcred.registry import Registry
path, name, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
wins = 0
with Registry(path) as reg:
    print("ready", flush=True)
    sys.stdin.readline()
    for i in range(n):
        cid = hashlib.sha256(f"coupon-{i}".encode()).digest()
        req = hashlib.sha256(f"{name}/{i}".encode()).digest()
        try:
            wins += reg.mark_used(cid, 1, request_digest=req)
        except AlreadyUsedError:
            pass
print(wins)
"""


def test_two_processes_one_winner(tmp_path):
    """Two processes, each holding a handle opened before either moves a
    coupon, race for the same coupons: each moves once, and the log
    numbers every record once."""
    path, n = tmp_path / "reg.log", 40
    with Registry(path) as reg:
        reg.register_many([_coupon(i) for i in range(n)])
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    racers = [subprocess.Popen([sys.executable, "-c", _RACER, str(path), name, str(n)],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONPATH": str(src)})
              for name in ("p", "q")]
    try:
        for racer in racers:
            assert racer.stdout.readline().strip() == "ready"
        for racer in racers:
            racer.stdin.write("go\n")
            racer.stdin.flush()
        wins = [int(racer.communicate(timeout=60)[0]) for racer in racers]
    finally:
        for racer in racers:
            racer.kill()
            racer.communicate()
    assert sum(wins) == n
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(1, n + 2))
    with Registry(path) as again:
        assert {again.check(_cid(i)).stage for i in range(n)} == {Stage.DOSE1}


def test_corrupt_middle_line_rejected(tmp_path):
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(*_coupon(0))
        reg.mark_used(_cid(0), 1)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = b'{"cid": "feedface"}\n'
    path.write_bytes(b"".join(lines))
    with pytest.raises(Exception):
        Registry(path)


@pytest.mark.parametrize("line", [
    {"date": None, "op": "dose1", "seq": 2},  # no cid
    {"cid": "not hex", "date": None, "op": "dose1", "seq": 2},
    {"cid": _cid(0).hex(), "date": None, "op": "dose1", "seq": "x"},
    [_cid(0).hex(), "dose1"],  # not an object
    {"coupons": bytes(40).hex(), "op": "register", "seq": 2},  # not whole pairs
    {"cid": _cid(0).hex(), "date": None, "op": "dose1", "req": 7, "seq": 2},
    {"badge": "ab" * 31, "cid": _cid(0).hex(), "date": None, "op": "dose1", "seq": 2},
    {"badge": "zz" * 32, "cid": _cid(0).hex(), "date": None, "op": "dose1", "seq": 2},
    {"badge": 7, "cid": _cid(0).hex(), "date": None, "op": "dose1", "seq": 2},
    {"badge": None, "cid": _cid(0).hex(), "date": None, "op": "dose1", "seq": 2},
], ids=["no-cid", "non-hex-cid", "non-integer-seq", "not-an-object", "partial-pair",
        "non-text-req", "short-badge", "non-hex-badge", "non-text-badge", "null-badge"])
def test_malformed_record_refused_on_replay(tmp_path, line):
    """A hostile log line makes replay raise CanonicalError, not another
    exception or a silent partial registration."""
    path = tmp_path / "reg.log"
    with Registry(path) as reg:
        reg.register(*_coupon(0))
    with open(path, "a") as fh:
        fh.write(json.dumps(line) + "\n")
    with pytest.raises(CanonicalError):
        Registry(path)


def test_dismantle(tmp_path):
    path = tmp_path / "reg.log"
    reg = Registry(path)
    for i in range(3):
        reg.register(*_coupon(i))
    reg.mark_used(_cid(0), 1)
    with pytest.raises(InvalidTransitionError):
        reg.dismantle()  # requires explicit administrative intent
    reg.dismantle(administrative=True)
    assert reg.dismantled
    with pytest.raises(DismantledError):
        reg.check(_cid(0))
    with pytest.raises(DismantledError):
        reg.register(*_coupon(9))
    with pytest.raises(DismantledError):
        reg.mark_used(_cid(0), 2)
    # the log holds only the marker: coupon ids are gone from disk
    raw = path.read_bytes()
    assert _cid(0).hex().encode() not in raw
    assert raw.count(b"\n") == 1
    reg.close()
    with Registry(path) as again:
        assert again.dismantled


class _NoSpace:
    """A file opened for writing whose writes fail, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_failed_dismantle_leaves_the_registry_whole(tmp_path, monkeypatch):
    """A dismantle whose marker cannot be written leaves the log and the
    registry as they were: never an empty log that reopens live."""
    path = tmp_path / "reg.log"
    reg = Registry(path)
    for i in range(3):
        reg.register(*_coupon(i))
    reg.mark_used(_cid(0), 1)
    before = path.read_bytes()
    real_open, real_fdopen = builtins.open, os.fdopen

    def failing(opener):
        def open_(file, mode="r", *args, **kwargs):
            fh = opener(file, mode, *args, **kwargs)
            return _NoSpace(fh) if "w" in mode else fh
        return open_

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", failing(real_open))
        patch.setattr(os, "fdopen", failing(real_fdopen))
        with pytest.raises(OSError):
            reg.dismantle(administrative=True)
    assert not reg.dismantled and reg.check(_cid(0)).stage is Stage.DOSE1
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["reg.log"]  # no marker left beside it
    reg.mark_used(_cid(1), 1)
    reg.close()
    with Registry(path) as again:
        assert not again.dismantled and len(again) == 3
        assert again.check(_cid(1)).stage is Stage.DOSE1


def test_len_and_snapshot(registry):
    assert len(registry) == 0
    registry.register(*_coupon(0))
    registry.register(*_coupon(1))
    assert len(registry) == 2
    snap = registry.snapshot()
    registry.mark_used(_cid(0), 1)
    assert snap != registry.snapshot()  # snapshot is a copy, not a view


def test_wrong_cid_type_rejected(registry):
    with pytest.raises(Exception):
        registry.register("not-bytes")
