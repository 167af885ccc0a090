"""One-use coupon registry: the issuer's only durable state.

Tracks each coupon id through unused -> dose1 -> dose2 under a lock, so
concurrent redemptions of the same coupon serialize and exactly one wins.
Every transition is appended to a JSON-lines log before the call returns;
replaying the log reproduces the in-memory state. A record counts once its
newline is on disk: opening the log cuts a torn final line left by a crash
mid-append, so the next append starts on a line of its own.

A coupon is registered with a digest of its signature; signing is
deterministic, so a coupon matching id and digest is the one the issuer
signed. An entry from a log that predates digests matches nothing.

Retries are recognized by request digest: a transition replayed with the
digest already on file is a no-op success instead of a double-use error.
Dismantling erases all state, atomically replaces the log with a single
marker, and leaves the registry refusing further work.
"""

from __future__ import annotations

import contextlib
import enum
import fcntl
import hmac
import json
import os
import threading
from dataclasses import dataclass
from typing import Optional

from .errors import (
    AlreadyUsedError,
    CanonicalError,
    DismantledError,
    InvalidTransitionError,
    UnknownCouponError,
)
from .wallet import write_atomic


class Stage(enum.Enum):
    UNUSED = "unused"
    DOSE1 = "dose1"
    DOSE2 = "dose2"


@dataclass(frozen=True)
class CouponState:
    stage: Stage
    date: Optional[str] = None

    @property
    def is_used(self) -> bool:
        return self.stage is not Stage.UNUSED


class _Entry:
    """One coupon's signature digest (None from an old log), stage, latest
    dose date and the request digest of each dose taken; kept small, as a
    registry holds one per coupon issued."""

    __slots__ = ("sig", "stage", "date", "req1", "req2")

    def __init__(self, sig: Optional[bytes]):
        self.sig = sig
        self.stage = Stage.UNUSED
        self.date = None
        self.req1 = None
        self.req2 = None

    def move(self, stage: Stage, date: Optional[str], digest: Optional[bytes]) -> None:
        self.stage, self.date = stage, date
        if digest is not None:
            if stage is Stage.DOSE1:
                self.req1 = digest
            else:
                self.req2 = digest


class Registry:
    """In-memory map of coupon id -> state, optionally backed by a log file."""

    def __init__(self, log_path=None):
        self._lock = threading.Lock()
        self._entries = {}
        self._seq = 0
        self._dismantled = False
        self._log_path = os.fspath(log_path) if log_path is not None else None
        self._log_fh = None
        if self._log_path is not None:
            self._log_fh = open(self._log_path, "a", encoding="utf-8")
            try:
                with self._file_lock():
                    records = self._read_complete()
                self._replay(records)
            except BaseException:
                self._log_fh.close()
                raise

    # -- logging ---------------------------------------------------------

    @contextlib.contextmanager
    def _file_lock(self):
        """Exclusive lock on the log file, so that no other process reads a
        record half written, or appends while a torn tail is being cut.
        Held only for the read and the cut on open, not for the replay."""
        fd = self._log_fh.fileno()
        fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)

    def _append(self, records: list) -> None:
        """Number the records; with a log, write them all, then one fsync."""
        for record in records:
            self._seq += 1
            record["seq"] = self._seq
        if self._log_fh is not None:
            data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            with self._file_lock():
                self._log_fh.write(data)
                self._log_fh.flush()
                os.fsync(self._log_fh.fileno())

    def _read_complete(self) -> bytes:
        """The log's newline-terminated records. What follows the last
        newline is a torn append, never acknowledged to its caller; it is
        cut so that the next append starts on a line of its own."""
        with open(self._log_path, "rb") as fh:
            data = fh.read()
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            os.ftruncate(self._log_fh.fileno(), complete)
        return data[:complete]

    def _replay(self, records: bytes) -> None:
        for i, line in enumerate(records.split(b"\n")[:-1]):
            try:
                record = json.loads(line)
            except ValueError:
                raise CanonicalError(f"corrupt registry log at line {i + 1}") from None
            self._apply(record)
            self._seq = max(self._seq, int(record.get("seq", 0)))

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op == "dismantle":
            self._entries.clear()
            self._dismantled = True
            return
        cid = bytes.fromhex(record["cid"])
        if op == "register":
            sig = record.get("sig_digest")
            self._entries.setdefault(cid, _Entry(bytes.fromhex(sig) if sig else None))
            return
        if op in ("dose1", "dose2"):
            req = record.get("req")
            self._entries.setdefault(cid, _Entry(None)).move(
                Stage(op), record.get("date"), bytes.fromhex(req) if req else None
            )
            return
        raise CanonicalError(f"unknown registry record op {op!r}")

    # -- queries ---------------------------------------------------------

    def _guard(self) -> None:
        if self._dismantled:
            raise DismantledError("registry has been dismantled")

    def check(self, coupon_id: bytes) -> CouponState:
        with self._lock:
            self._guard()
            entry = self._entries.get(coupon_id)
            if entry is None:
                raise UnknownCouponError(coupon_id.hex())
            return CouponState(entry.stage, entry.date)

    def match(self, coupon_id: bytes, digest: bytes) -> Optional[CouponState]:
        """The state of the coupon registered with this id and signature
        digest; None for any other, for an entry without a digest, and on a
        dismantled registry (which holds no entries), so a caller can fall
        back to a signature check that decides the error. Never raises."""
        with self._lock:
            entry = self._entries.get(coupon_id)
            if entry is None or entry.sig is None or not hmac.compare_digest(entry.sig, digest):
                return None
            return CouponState(entry.stage, entry.date)

    def known(self, coupon_id: bytes) -> bool:
        with self._lock:
            self._guard()
            return coupon_id in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def dismantled(self) -> bool:
        return self._dismantled

    def snapshot(self) -> dict:
        """Hex id -> (stage value, date), for state comparisons in tests."""
        with self._lock:
            return {cid.hex(): (e.stage.value, e.date) for cid, e in self._entries.items()}

    # -- transitions -----------------------------------------------------

    def register(self, coupon_id: bytes, sig_digest: bytes) -> None:
        self.register_many([(coupon_id, sig_digest)])

    def register_many(self, coupons) -> None:
        """Register (coupon id, signature digest) pairs as unused, with one
        log write and one fsync for all of them. An id already known, or
        given twice, refuses the whole batch before anything is written:
        re-issuing a coupon would hand out one that may be spent."""
        coupons = list(coupons)
        for coupon_id, sig_digest in coupons:
            if not isinstance(coupon_id, bytes) or len(coupon_id) != 32:
                raise CanonicalError("coupon id must be 32 bytes")
            if not isinstance(sig_digest, bytes) or len(sig_digest) != 32:
                raise CanonicalError("signature digest must be 32 bytes")
        ids = [coupon_id for coupon_id, _ in coupons]
        with self._lock:
            self._guard()
            if len(set(ids)) != len(ids) or not self._entries.keys().isdisjoint(ids):
                raise InvalidTransitionError("batch names a coupon already registered")
            for coupon_id, sig_digest in coupons:
                self._entries[coupon_id] = _Entry(sig_digest)
            self._append(
                [{"cid": c.hex(), "date": None, "op": "register", "sig_digest": d.hex()}
                 for c, d in coupons]
            )

    def mark_used(
        self,
        coupon_id: bytes,
        dose: int,
        date: Optional[str] = None,
        request_digest: Optional[bytes] = None,
    ) -> bool:
        """Atomically advance one dose. Returns True if the state moved,
        False for a recognized retry (same request digest already applied).
        """
        if dose not in (1, 2):
            raise InvalidTransitionError(f"dose must be 1 or 2, got {dose}")
        req = bytes(request_digest) if request_digest else None
        with self._lock:
            self._guard()
            entry = self._entries.get(coupon_id)
            if entry is None:
                raise UnknownCouponError(coupon_id.hex())
            stage = entry.stage
            if dose == 1:
                if stage is not Stage.UNUSED:
                    if req is not None and entry.req1 == req:
                        return False
                    raise AlreadyUsedError(coupon_id.hex())
            else:
                if stage is Stage.UNUSED:
                    raise InvalidTransitionError("second dose before first")
                if stage is Stage.DOSE2:
                    if req is not None and entry.req2 == req:
                        return False
                    raise AlreadyUsedError(coupon_id.hex())
            new_stage = Stage.DOSE1 if dose == 1 else Stage.DOSE2
            entry.move(new_stage, date, req)
            record = {"cid": coupon_id.hex(), "op": new_stage.value, "date": date}
            if req is not None:
                record["req"] = req.hex()
            self._append([record])
            return True

    def dismantle(self, *, administrative: bool = False) -> None:
        """Erase every entry and replace the log with a single marker line,
        renamed over it once fsynced: a crash leaves the log or the marker,
        never an empty log that reopens live. Requires the administrative
        flag; repeat calls are no-ops."""
        if not administrative:
            raise InvalidTransitionError("dismantle requires the administrative flag")
        with self._lock:
            if self._dismantled:
                return
            if self._log_fh is not None:
                marker = {"op": "dismantle", "seq": self._seq + 1}
                write_atomic(self._log_path, (json.dumps(marker, sort_keys=True) + "\n").encode())
                self._log_fh.close()
                self._log_fh = open(self._log_path, "a", encoding="utf-8")
            self._seq += 1
            self._entries.clear()
            self._dismantled = True

    def close(self) -> None:
        with self._lock:
            if self._log_fh is not None:
                self._log_fh.close()
                self._log_fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
