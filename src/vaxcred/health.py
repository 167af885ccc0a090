"""Post-vaccination outcome reporting, private aggregation, alert feeds.

Symptom vectors are uploaded either bound to a redeemed coupon (verified
but pseudonymous — the coupon id sticks to the report) or anonymously. A
bound report comes with the coupon itself, which the registry must hold
exactly, so knowing a redeemed coupon's payload is not enough to report
under it.
For aggregate statistics, each client splits its vector into two additive
shares mod a prime; each server only ever holds one share per client and
keeps nothing but a running sum and a count. Recombining the two running
sums yields the exact plaintext total, optionally blurred with Laplace
noise before publication.

Alert feeds are plain downloadable values: the client fetches the whole
day's feed and matches lot/product/site/condition locally, so the request
bytes carry nothing about the holder.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

from . import canonical, durable
from .config import FIELD_MODULUS, MAX_REPORTS, SYMPTOM_BOUND
from .coupons import Coupon
from .credentials import DoseInfo, parse_date
from .crypto import randomness
from .errors import (
    CanonicalError,
    CountMismatchError,
    ModulusTooSmallError,
    NoiseParameterError,
    RangeViolationError,
    ShareLengthError,
    WrongStateError,
)

ALERT_SCOPES = ("product", "lot", "site", "condition")


@dataclass(frozen=True)
class SymptomVector:
    counts: tuple
    bound: int = SYMPTOM_BOUND

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if not self.counts:
            raise CanonicalError("symptom vector is empty")
        for c in self.counts:
            if not isinstance(c, int) or isinstance(c, bool):
                raise CanonicalError("symptom counts must be integers")
            if not 0 <= c < self.bound:
                raise CanonicalError(f"count {c} outside [0, {self.bound})")

    @property
    def dim(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class SymptomReport:
    vector: SymptomVector
    timestamp: str
    coupon: Optional[Coupon] = None  # None = anonymous path
    dose_ref: Optional[tuple] = None  # (product, lot, site_id)

    def __post_init__(self):
        if self.coupon is not None and not isinstance(self.coupon, Coupon):
            raise CanonicalError("a bound report carries its coupon")
        if self.dose_ref is not None and len(self.dose_ref) != 3:
            raise CanonicalError("dose_ref must be (product, lot, site)")
        parse_date(self.timestamp)


def upload_report(registry, report: SymptomReport) -> Optional[dict]:
    """The record to store for ``report``, or None when it is refused.
    Anonymous reports are accepted outright, and their records carry no
    coupon field at all; coupon-bound ones only when the registry holds that
    exact coupon, id and signature digest, and it has been redeemed."""
    record = {"timestamp": report.timestamp, "vector": list(report.vector.counts)}
    if report.coupon is not None:
        state = registry.match(report.coupon.coupon_id, report.coupon.sig_digest)
        if state is None or not state.is_used:
            return None
        record["coupon_id"] = report.coupon.coupon_id.hex()
    if report.dose_ref is not None:
        product, lot, site = report.dose_ref
        record["dose_ref"] = {"lot": lot, "product": product, "site": site}
    return record


# -- additive secret sharing --------------------------------------------------


@dataclass(frozen=True)
class ShareBundle:
    share_a: tuple
    share_b: tuple
    p: int


def split_shares(
    vector: SymptomVector,
    p: int = FIELD_MODULUS,
    rng=None,
    *,
    n_max: int = MAX_REPORTS,
) -> ShareBundle:
    """share_a is uniform mod p; share_b is the difference. `p` must leave
    headroom for `n_max` honest totals (p > n_max * bound)."""
    if p <= 1:
        raise ModulusTooSmallError(f"modulus {p} is not a field size")
    if p <= n_max * vector.bound:
        raise ModulusTooSmallError(
            f"modulus {p} cannot hold {n_max} reports of bound {vector.bound}"
        )
    draw = randomness(rng).randrange
    share_a = []
    share_b = []
    for v in vector.counts:
        a = draw(p)
        share_a.append(a)
        share_b.append((v - a) % p)
    return ShareBundle(share_a=tuple(share_a), share_b=tuple(share_b), p=p)


class AggServer:
    """One aggregation server: a running sum and a count, nothing else.

    `accumulate` folds a share in under a lock and drops it; individual
    shares are unrecoverable afterwards.
    """

    def __init__(self, dim: int, p: int = FIELD_MODULUS):
        if dim < 1:
            raise CanonicalError("dimension must be >= 1")
        if p <= 1:
            raise ModulusTooSmallError(f"modulus {p} is not a field size")
        self.dim = dim
        self.p = p
        self._sum = [0] * dim
        self._count = 0
        self._lock = threading.Lock()

    def accumulate(self, share) -> None:
        share = list(share)
        if len(share) != self.dim:
            raise ShareLengthError(f"expected {self.dim} elements, got {len(share)}")
        for x in share:
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.p:
                raise CanonicalError("share elements must be field elements")
        with self._lock:
            for i, x in enumerate(share):
                self._sum[i] = (self._sum[i] + x) % self.p
            self._count += 1

    @property
    def running_sum(self) -> tuple:
        with self._lock:
            return tuple(self._sum)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


@dataclass(frozen=True)
class AggregateResult:
    totals: tuple
    n_reports: int
    epsilon: Optional[float] = None
    noised: bool = False


def combine_aggregates(
    server_a: AggServer,
    server_b: AggServer,
    *,
    bound: int = SYMPTOM_BOUND,
) -> AggregateResult:
    """Exact totals from the two running sums. Totals above n*bound are
    impossible for honest clients and flag malformed shares."""
    if server_a.p != server_b.p or server_a.dim != server_b.dim:
        raise CanonicalError("servers disagree on field or dimension")
    count_a, count_b = server_a.count, server_b.count
    if count_a != count_b:
        raise CountMismatchError(f"server counts differ: {count_a} vs {count_b}")
    p = server_a.p
    totals = tuple(
        (a + b) % p for a, b in zip(server_a.running_sum, server_b.running_sum)
    )
    limit = count_a * bound
    for i, t in enumerate(totals):
        if t > limit:
            raise RangeViolationError(
                f"slot {i} total {t} exceeds {count_a} reports x bound {bound}"
            )
    return AggregateResult(totals=totals, n_reports=count_a)


def laplace_sample(scale: float, rng=None) -> float:
    """Difference of two exponentials — a Laplace(0, scale) draw with no
    boundary special cases. Without an injected rng it draws from the OS
    generator, so published noise cannot be predicted from earlier draws."""
    r = randomness(rng)
    return scale * (r.expovariate(1.0) - r.expovariate(1.0))


def add_dp_noise(
    agg: AggregateResult,
    epsilon: float,
    sensitivity: float = 1.0,
    rng=None,
) -> AggregateResult:
    if not (math.isfinite(epsilon) and epsilon > 0):  # NaN and infinity too
        raise NoiseParameterError(f"epsilon must be positive and finite, got {epsilon}")
    if not (math.isfinite(sensitivity) and sensitivity > 0):
        raise NoiseParameterError(f"sensitivity must be positive and finite, got {sensitivity}")
    if agg.noised:
        raise WrongStateError("aggregate already carries noise")
    scale = sensitivity / epsilon
    if not math.isfinite(scale):
        raise NoiseParameterError(f"noise scale {sensitivity}/{epsilon} is not finite")
    try:
        noisy = tuple(t + laplace_sample(scale, rng) for t in agg.totals)
    except OverflowError:  # an integer total no float can hold
        raise NoiseParameterError("a total is beyond the range of a float") from None
    if not all(map(math.isfinite, noisy)):
        raise NoiseParameterError(f"noise of scale {scale} overflows a total")
    return AggregateResult(
        totals=tuple(int(round(x)) for x in noisy), n_reports=agg.n_reports,
        epsilon=epsilon, noised=True,
    )


# -- alert feeds ----------------------------------------------------------------


@dataclass(frozen=True)
class AlertEntry:
    scope: str  # product | lot | site | condition
    key: str
    message: str

    def __post_init__(self):
        if self.scope not in ALERT_SCOPES:
            raise CanonicalError(f"unknown alert scope {self.scope!r}")
        if not isinstance(self.key, str) or not isinstance(self.message, str):
            raise CanonicalError("an alert's key and message are text")


@dataclass(frozen=True)
class AlertFeed:
    day: str
    entries: tuple


def publish_alert_feed(day: str, entries) -> AlertFeed:
    return AlertFeed(day=day, entries=tuple(entries))


def save_feed(feed: AlertFeed, path) -> None:
    durable.replace(path, durable.dump_lines(
        {"day": feed.day, "key": e.key, "message": e.message, "scope": e.scope}
        for e in feed.entries
    ))


def load_feed(path) -> AlertFeed:
    with open(path, "rb") as fh:
        records = list(durable.json_lines(fh))
    what = f"alert entry in {path}"
    rows = [canonical.fields(r, ("scope", "key", "message"), what, ("day",)) for r in records]
    entries = tuple(AlertEntry(scope, key, message) for scope, key, message, _ in rows)
    return AlertFeed(day=(rows[-1][3] if rows else None) or "", entries=entries)


@dataclass(frozen=True)
class MatchResult:
    matched: tuple  # of AlertEntry

    @property
    def any_match(self) -> bool:
        return bool(self.matched)


def match_alerts(feed: AlertFeed, doses, conditions=()) -> MatchResult:
    """Client-side matching of the downloaded feed against the holder's
    dose records and personal condition codes."""
    if isinstance(doses, DoseInfo):
        doses = [doses]
    doses = list(doses)
    products = {d.product for d in doses}
    lots = {d.lot for d in doses}
    sites = {d.site_id for d in doses}
    conditions = set(conditions)
    matched = []
    for e in feed.entries:
        hit = (
            (e.scope == "product" and e.key in products)
            or (e.scope == "lot" and e.key in lots)
            or (e.scope == "site" and e.key in sites)
            or (e.scope == "condition" and e.key in conditions)
        )
        if hit:
            matched.append(e)
    return MatchResult(matched=tuple(matched))
