"""One-use coupon registry: the issuer's only durable state.

Tracks each coupon id through unused -> dose1 -> dose2 under a lock, so
concurrent redemptions of the same coupon serialize and exactly one wins.
Every transition is appended to a JSON-lines log before memory changes;
replaying the log reproduces the in-memory state. Handles in several
processes may share one log: each decides a transition under the log's
lock, after applying what the others appended, so one still wins.

A coupon is registered with a digest of its signature; signing is
deterministic, so a coupon matching id and digest is the one the issuer
signed. A batch is one ``register`` record, ``coupons``, so a crash
registers all of it or none. A dose record holds ``cid``, ``date``,
``op``, ``req`` and ``seq``; ``dose1`` also holds ``badge``, the digest of
the badge signed, which a second dose matches. A log holding any other
record, or a dose out of stage order, is refused whole when opened.

Retries are recognized by request digest: a transition replayed with the
digest already on file is a no-op success instead of a double-use error.
Dismantling erases all state, atomically replaces the log with a single
marker, and leaves the registry refusing further work.

Each coupon is one ``bytes`` value, read by slicing at fixed offsets: a
stage byte (0 unused, 1 dose 1, 2 dose 2), the signature digest, then
from dose 1 the dose-1 request and badge digests, from dose 2 the dose-2
request digest, 32 bytes apiece, and last the UTF-8 date of the latest
dose. The stage says which fields are there. An unused coupon is 33 bytes.
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


_STAGES = tuple(Stage)  # by stage byte
_SIG = slice(1, 33)
_REQ = (None, slice(33, 65), slice(97, 129))  # request digest, by dose
_BADGE = slice(65, 97)
_DATE = (33, 97, 129)  # where the digests end and the date starts, by stage byte


def _date(entry: bytes) -> Optional[str]:
    stage = entry[0]
    return entry[_DATE[stage]:].decode("utf-8", "surrogatepass") if stage else None


def _state(entry: bytes) -> CouponState:
    return CouponState(_STAGES[entry[0]], _date(entry))


def _digest(text) -> bytes:
    """A 32-byte digest from its hex in a log record."""
    digest = bytes.fromhex(text)
    if len(digest) != 32:
        raise CanonicalError("registry digests are 32 bytes")
    return digest


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
        if op == "register":
            raw = bytes.fromhex(record["coupons"])  # id || signature digest, per coupon
            if len(raw) % 64:
                raise CanonicalError("registry record holds part of a coupon")
            for at in range(0, len(raw), 64):
                self._entries.setdefault(raw[at:at + 32], b"\0" + raw[at + 32:at + 64])  # unused
            return
        if op not in ("dose1", "dose2"):
            raise CanonicalError(f"unknown registry record op {op!r}")
        cid, date, stage = bytes.fromhex(record["cid"]), record["date"], int(op[-1])
        entry = self._entries.get(cid)
        if entry is None or entry[0] != stage - 1:
            raise CanonicalError(f"registry record {op} for a coupon not at the stage before")
        if not isinstance(date, str):
            raise CanonicalError("dose date must be text")
        digests = entry[1:_DATE[stage - 1]] + _digest(record["req"])
        if stage == 1:
            digests += _digest(record["badge"])
        self._entries[cid] = bytes((stage,)) + digests + date.encode("utf-8", "surrogatepass")

    # -- queries ---------------------------------------------------------

    def _guard(self) -> None:
        if self._dismantled:
            raise DismantledError("registry has been dismantled")

    def _lookup(self, coupon_id: bytes) -> Optional[bytes]:
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
            return _state(entry)

    def match(self, coupon_id: bytes, digest: bytes) -> Optional[CouponState]:
        """The state of the coupon registered with this id and signature
        digest; None for any other, and on a dismantled registry (which
        holds no entries), so a caller can fall back to a signature check
        that decides the error."""
        return self._match(coupon_id, _SIG, digest)

    def match_badge(self, coupon_id: bytes, digest: bytes) -> Optional[CouponState]:
        """``match`` for the digest of the badge signed at the coupon's first
        dose; None also before that dose."""
        return self._match(coupon_id, _BADGE, digest)

    def _match(self, coupon_id: bytes, field: slice, digest: bytes) -> Optional[CouponState]:
        with self._lock:
            entry = self._lookup(coupon_id)
            held = entry[field] if entry is not None else b""
            if len(held) != 32 or not hmac.compare_digest(held, digest):
                return None
            return _state(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def dismantled(self) -> bool:
        return self._dismantled

    def snapshot(self) -> dict:
        """Hex id -> (stage value, date), for state comparisons in tests."""
        with self._lock:
            return {cid.hex(): (_STAGES[e[0]].value, _date(e)) for cid, e in self._entries.items()}

    # -- transitions -----------------------------------------------------

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

    def mark_used(self, coupon_id: bytes, dose: int, date: str, request_digest: bytes,
                  badge_digest: bytes) -> bool:
        """Atomically advance one dose, logging ``badge_digest`` on a first
        (a second's is checked, not logged). Returns True if the state
        moved, False for a recognized retry (the dose's request digest is
        the one on file)."""
        if dose not in (1, 2):
            raise InvalidTransitionError(f"dose must be 1 or 2, got {dose}")
        if not isinstance(date, str):
            raise CanonicalError("dose date must be text")
        for digest in (request_digest, badge_digest):  # before any write
            if not isinstance(digest, bytes) or len(digest) != 32:
                raise CanonicalError("registry digests are 32 bytes")
        with self._lock, self._log_locked():
            self._guard()
            entry = self._entries.get(coupon_id)
            if entry is None:
                raise UnknownCouponError(coupon_id.hex())
            if entry[0] < dose - 1:
                raise InvalidTransitionError("second dose before first")
            if entry[0] >= dose:
                if entry[_REQ[dose]] == request_digest:
                    return False
                raise AlreadyUsedError(coupon_id.hex())
            record = {"cid": coupon_id.hex(), "date": date, "op": f"dose{dose}",
                      "req": request_digest.hex()}
            if dose == 1:
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
