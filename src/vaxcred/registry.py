"""One-use coupon registry: the issuer's only durable state.

Tracks each coupon id through unused -> dose1 -> dose2 under a lock, so
concurrent redemptions of the same coupon serialize and exactly one wins.
Every transition is appended to a JSON-lines log before memory changes;
replaying the log reproduces the in-memory state. Handles in several
processes may share one log: each decides a transition under the log's
lock, after applying what the others appended, so one still wins.

A coupon is registered with a digest of its signature; signing is
deterministic, so a coupon matching id and digest is the one the issuer
signed. A batch is one ``register`` record, so a crash registers all of
it or none. Older logs hold one record per coupon; the oldest carry no
digest, and their entries match nothing. A dose record holds ``cid``,
``date``, ``op``, ``req`` and ``seq``; ``dose1`` also holds ``badge``, the
digest of the badge signed, which a second dose matches (older ones lack it).

Retries are recognized by request digest: a transition replayed with the
digest already on file is a no-op success instead of a double-use error.
Dismantling erases all state, atomically replaces the log with a single
marker, and leaves the registry refusing further work.
"""

from __future__ import annotations

import contextlib
import enum
import hmac
import threading
from dataclasses import dataclass
from typing import Optional

from .durable import Journal
from .errors import (
    AlreadyUsedError,
    CanonicalError,
    DismantledError,
    InvalidTransitionError,
    UnknownCouponError,
)


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
    dose date, request digest per dose and dose-1 badge digest; kept small,
    as a registry holds one per coupon issued."""

    __slots__ = ("sig", "stage", "date", "req1", "req2", "badge")

    def __init__(self, sig: Optional[bytes]):
        self.sig, self.stage = sig, Stage.UNUSED
        self.date = self.req1 = self.req2 = self.badge = None


class Registry:
    """In-memory map of coupon id -> state, optionally backed by a log file."""

    def __init__(self, log_path=None):
        self._lock = threading.Lock()
        self._entries = {}
        self._seq = 0
        self._dismantled = False
        self._journal = Journal(log_path) if log_path is not None else None
        if self._journal is not None:
            try:
                with self._journal.locked() as records:
                    pass
                self._replay(records)  # after the lock: appends elsewhere need not wait
            except BaseException:
                self._journal.close()
                raise

    # -- logging ---------------------------------------------------------

    @contextlib.contextmanager
    def _log_locked(self):
        """Hold the log's lock, with what other handles appended applied, so
        a decision made here is made on the whole log. Under ``self._lock``."""
        if self._journal is None:
            yield
            return
        with self._journal.locked() as records:
            self._replay(records)
            yield

    def _commit(self, records: list) -> None:
        """Log the numbered records with one fsync, then apply them as a replay would."""
        for seq, record in enumerate(records, self._seq + 1):
            record["seq"] = seq
        if self._journal is not None:
            self._journal.append(records)
        self._replay(records)

    def _replay(self, records) -> None:
        for record in records:
            if not isinstance(record, dict) or type(record.get("seq", 0)) is not int:
                raise CanonicalError("malformed registry record")
            try:
                self._apply(record)
            except (KeyError, TypeError, ValueError):  # a field missing, mistyped or not hex
                raise CanonicalError("malformed registry record") from None
            self._seq = max(self._seq, record.get("seq", 0))

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op == "dismantle":
            self._entries.clear()
            self._dismantled = True
            return
        if op == "register" and "coupons" in record:
            raw = bytes.fromhex(record["coupons"])  # id || signature digest, per coupon
            if len(raw) % 64:
                raise CanonicalError("registry record holds part of a coupon")
            for at in range(0, len(raw), 64):
                self._entries.setdefault(raw[at:at + 32], _Entry(raw[at + 32:at + 64]))
            return
        cid = bytes.fromhex(record["cid"])
        if op == "register":  # one coupon, from a log that predates batches
            sig = record.get("sig_digest")
            self._entries.setdefault(cid, _Entry(bytes.fromhex(sig) if sig else None))
            return
        if op in ("dose1", "dose2"):
            req = bytes.fromhex(record["req"]) if record.get("req") else None
            badge = bytes.fromhex(record["badge"]) if "badge" in record else None
            if badge is not None and len(badge) != 32:
                raise CanonicalError("badge digest must be 32 bytes")
            entry = self._entries.setdefault(cid, _Entry(None))
            entry.stage, entry.date = Stage(op), record.get("date")
            if op == "dose1":
                entry.req1, entry.badge = req, badge
            elif req:
                entry.req2 = req
            return
        raise CanonicalError(f"unknown registry record op {op!r}")

    # -- queries ---------------------------------------------------------

    def _guard(self) -> None:
        if self._dismantled:
            raise DismantledError("registry has been dismantled")

    def _lookup(self, coupon_id: bytes) -> Optional[_Entry]:
        """The coupon's entry; only a miss takes the log's lock, to look again."""
        entry = self._entries.get(coupon_id)
        if entry is None and self._journal is not None:
            with self._log_locked():
                entry = self._entries.get(coupon_id)
        return entry

    def check(self, coupon_id: bytes) -> CouponState:
        with self._lock:
            entry = self._lookup(coupon_id)
            self._guard()
            if entry is None:
                raise UnknownCouponError(coupon_id.hex())
            return CouponState(entry.stage, entry.date)

    def match(self, coupon_id: bytes, digest: bytes) -> Optional[CouponState]:
        """The state of the coupon registered with this id and signature
        digest; None for any other, for an entry without a digest, and on a
        dismantled registry (which holds no entries), so a caller can fall
        back to a signature check that decides the error."""
        with self._lock:
            entry = self._lookup(coupon_id)
            if entry is None or entry.sig is None or not hmac.compare_digest(entry.sig, digest):
                return None
            return CouponState(entry.stage, entry.date)

    def match_badge(self, coupon_id: bytes, digest: bytes) -> Optional[CouponState]:
        """``match`` for the digest of the badge signed at the coupon's first
        dose; None also when its ``dose1`` record carries none."""
        with self._lock:
            entry = self._lookup(coupon_id)
            if entry is None or not entry.badge or not hmac.compare_digest(entry.badge, digest):
                return None
            return CouponState(entry.stage, entry.date)

    def known(self, coupon_id: bytes) -> bool:
        with self._lock:
            entry = self._lookup(coupon_id)
            self._guard()
            return entry is not None

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
        """Register (coupon id, signature digest) pairs as unused, in one
        log record with one write and one fsync. An id already known, or
        given twice, refuses the whole batch before anything is written:
        re-issuing a coupon would hand out one that may be spent."""
        coupons = list(coupons)
        for coupon_id, sig_digest in coupons:
            if not isinstance(coupon_id, bytes) or len(coupon_id) != 32:
                raise CanonicalError("coupon id must be 32 bytes")
            if not isinstance(sig_digest, bytes) or len(sig_digest) != 32:
                raise CanonicalError("signature digest must be 32 bytes")
        ids = [coupon_id for coupon_id, _ in coupons]
        with self._lock, self._log_locked():
            self._guard()
            if len(set(ids)) != len(ids) or not self._entries.keys().isdisjoint(ids):
                raise InvalidTransitionError("batch names a coupon already registered")
            self._commit([{"coupons": b"".join(c + d for c, d in coupons).hex(),
                           "op": "register"}])

    def mark_used(
        self,
        coupon_id: bytes,
        dose: int,
        date: Optional[str] = None,
        request_digest: Optional[bytes] = None,
        badge_digest: Optional[bytes] = None,
    ) -> bool:
        """Atomically advance one dose, recording ``badge_digest`` on a first.
        Returns True if the state moved, False for a recognized retry (same
        request digest already applied)."""
        if dose not in (1, 2):
            raise InvalidTransitionError(f"dose must be 1 or 2, got {dose}")
        req = bytes(request_digest) if request_digest else None
        with self._lock, self._log_locked():
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
            record = {"cid": coupon_id.hex(), "op": f"dose{dose}", "date": date}
            if req is not None:
                record["req"] = req.hex()
            if dose == 1 and badge_digest is not None:
                record["badge"] = badge_digest.hex()
            self._commit([record])
            return True

    def dismantle(self, *, administrative: bool = False) -> None:
        """Erase every entry and replace the log with a single marker line,
        renamed over it once fsynced: a crash leaves the log or the marker,
        never an empty log that reopens live. Requires the administrative
        flag; repeat calls are no-ops."""
        if not administrative:
            raise InvalidTransitionError("dismantle requires the administrative flag")
        with self._lock, self._log_locked():
            if self._dismantled:
                return
            marker = {"op": "dismantle", "seq": self._seq + 1}
            if self._journal is not None:
                self._journal.replace([marker])
            self._replay([marker])

    def close(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
