"""Outcome reporting and the split-share aggregation pipeline.

The share-uniformity checks use scipy's chi-square against a fixed seed;
the Laplace mechanism is checked against its analytic mean and variance.
"""

import contextlib
import errno
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vaxcred import durable
from vaxcred.canonical import decode as canonical_decode
from vaxcred.coupons import Coupon, issue_coupon_batch
from vaxcred.credentials import DoseInfo
from vaxcred.errors import (
    CanonicalError,
    CountMismatchError,
    ModulusTooSmallError,
    NoiseParameterError,
    RangeViolationError,
    ShareLengthError,
    WrongStateError,
)
from vaxcred.health import (
    AggregateResult,
    AggServer,
    AlertEntry,
    SymptomReport,
    SymptomVector,
    add_dp_noise,
    combine_aggregates,
    feed_request_bytes,
    laplace_sample,
    load_feed,
    match_alerts,
    publish_alert_feed,
    recombine,
    save_feed,
    split_shares,
    upload_report,
)
from vaxcred.registry import Registry

# a small field keeps the chi-square cell counts honest; the explicit
# n_max/bound pair satisfies the headroom rule p > n_max * bound
SMALL_P = 251
SMALL_BOUND = 2
SMALL_N_MAX = 100


def _small_vector(counts):
    return SymptomVector(tuple(counts), bound=SMALL_BOUND)


# -- vectors ------------------------------------------------------------------


def test_vector_validation():
    SymptomVector((0, 1, 2, 3))
    with pytest.raises(CanonicalError):
        SymptomVector(())
    with pytest.raises(CanonicalError):
        SymptomVector((-1, 0))
    with pytest.raises(CanonicalError):
        SymptomVector((2 ** 16, 0))  # == bound
    with pytest.raises(CanonicalError):
        SymptomVector((True, 0))
    with pytest.raises(CanonicalError):
        SymptomVector((1.0, 0))


# -- share splitting ------------------------------------------------------------


def test_split_recombine_round_trip(rng):
    vec = SymptomVector((3, 0, 7, 12, 1))
    bundle = split_shares(vec, rng=rng)
    assert recombine(bundle) == vec.counts
    assert len(bundle.share_a) == len(bundle.share_b) == 5


def test_shares_are_not_the_vector(rng):
    vec = SymptomVector((5,) * 8)
    bundle = split_shares(vec, rng=rng)
    # a share equal to the plaintext would mean the mask drew exactly 0 /
    # exactly v in every slot — vanishing odds at this field size
    assert bundle.share_a != vec.counts
    assert bundle.share_b != vec.counts


def test_modulus_headroom_enforced(rng):
    vec = SymptomVector((1, 2, 3))
    with pytest.raises(ModulusTooSmallError):
        split_shares(vec, p=SMALL_P, rng=rng)  # default n_max * 2**16 >> 251
    with pytest.raises(ModulusTooSmallError):
        split_shares(vec, p=1, rng=rng)
    # explicit small workload fits
    bundle = split_shares(_small_vector((1, 0, 1)), p=SMALL_P, rng=rng,
                          n_max=SMALL_N_MAX)
    assert recombine(bundle) == (1, 0, 1)


def test_single_share_is_uniform():
    """What one server sees is uniform mod p, whatever the secret: the
    chi-square statistic over all 251 residues must not reject at 5%."""
    rng = random.Random(0xC4A0)
    n_draws = 25_100  # 100 expected per cell
    for secret in (0, 1):
        counts_b = [0] * SMALL_P
        vec = _small_vector((secret,))
        for _ in range(n_draws):
            bundle = split_shares(vec, p=SMALL_P, rng=rng, n_max=SMALL_N_MAX)
            counts_b[bundle.share_b[0]] += 1
        result = stats.chisquare(counts_b)
        assert result.pvalue > 0.05, (
            f"share_b for secret={secret} deviates from uniform "
            f"(chi2={result.statistic:.1f}, p={result.pvalue:.4f})"
        )


def test_share_distribution_ignores_secret():
    """Server B's view of secret 0 and secret 1 are the same distribution."""
    rng = random.Random(0xB1A5)
    n_draws = 12_550
    observed = []
    for secret in (0, 1):
        counts = [0] * SMALL_P
        vec = _small_vector((secret,))
        for _ in range(n_draws):
            counts[split_shares(vec, p=SMALL_P, rng=rng,
                                n_max=SMALL_N_MAX).share_b[0]] += 1
        observed.append(counts)
    result = stats.chi2_contingency([observed[0], observed[1]])
    assert result.pvalue > 0.05, (
        f"share_b distinguishes the secrets (p={result.pvalue:.4f})"
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2 ** 16 - 1),
             min_size=1, max_size=12),
    st.randoms(use_true_random=False),
)
def test_split_recombine_property(counts, hrng):
    vec = SymptomVector(tuple(counts))
    assert recombine(split_shares(vec, rng=hrng)) == tuple(counts)


# -- aggregation servers --------------------------------------------------------


def _run_clients(vectors, rng, p=None, n_max=None):
    kwargs = {}
    if p is not None:
        kwargs["p"] = p
    if n_max is not None:
        kwargs["n_max"] = n_max
    dim = vectors[0].dim
    a = AggServer(dim, **({"p": p} if p else {}))
    b = AggServer(dim, **({"p": p} if p else {}))
    for vec in vectors:
        bundle = split_shares(vec, rng=rng, **kwargs)
        a.accumulate(bundle.share_a)
        b.accumulate(bundle.share_b)
    return a, b


def test_aggregate_equals_plaintext_sums(rng):
    vectors = [
        SymptomVector(tuple(rng.randrange(50) for _ in range(6)))
        for _ in range(40)
    ]
    a, b = _run_clients(vectors, rng)
    agg = combine_aggregates(a, b)
    expected = tuple(
        sum(v.counts[i] for v in vectors) for i in range(6)
    )
    assert agg.totals == expected
    assert agg.n_reports == 40
    assert not agg.noised and agg.epsilon is None


def test_server_alone_sees_garbage(rng):
    vectors = [SymptomVector((9, 9, 9)) for _ in range(10)]
    a, b = _run_clients(vectors, rng)
    # neither running sum matches the true totals (odds ~ 3/p per slot)
    assert a.running_sum != (90, 90, 90)
    assert b.running_sum != (90, 90, 90)


def test_count_mismatch_detected(rng):
    vectors = [SymptomVector((1, 2)) for _ in range(5)]
    a, b = _run_clients(vectors, rng)
    extra = split_shares(SymptomVector((3, 4)), rng=rng)
    a.accumulate(extra.share_a)  # client only reached one server
    with pytest.raises(CountMismatchError):
        combine_aggregates(a, b)


def test_range_violation_detected(rng):
    """A malformed client can push the decoded total past n * bound."""
    p = SMALL_P
    a = AggServer(1, p=p)
    b = AggServer(1, p=p)
    honest = split_shares(_small_vector((1,)), p=p, rng=rng, n_max=SMALL_N_MAX)
    a.accumulate(honest.share_a)
    b.accumulate(honest.share_b)
    # adversarial "vector" of 50: never produced by an honest split at bound 2
    a.accumulate((25,))
    b.accumulate((25,))
    with pytest.raises(RangeViolationError):
        combine_aggregates(a, b, bound=SMALL_BOUND)


def test_server_parameter_agreement(rng):
    with pytest.raises(CanonicalError):
        combine_aggregates(AggServer(3), AggServer(4))
    with pytest.raises(CanonicalError):
        combine_aggregates(AggServer(3, p=SMALL_P), AggServer(3))
    with pytest.raises(ModulusTooSmallError):
        AggServer(3, p=1)
    with pytest.raises(CanonicalError):
        AggServer(0)


def test_accumulate_rejects_bad_shares():
    server = AggServer(3, p=SMALL_P)
    with pytest.raises(ShareLengthError):
        server.accumulate((1, 2))
    with pytest.raises(CanonicalError):
        server.accumulate((1, 2, SMALL_P))  # not reduced
    with pytest.raises(CanonicalError):
        server.accumulate((1, 2, -1))
    with pytest.raises(CanonicalError):
        server.accumulate((1, 2, True))
    assert server.count == 0  # nothing partial got folded in


# -- differential privacy --------------------------------------------------------


def test_laplace_moments():
    rng = random.Random(0xD1CE)
    n = 100_000
    samples = [laplace_sample(1.0, rng) for _ in range(n)]
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    assert abs(mean) < 4 * (2 / n) ** 0.5  # 4 sigma of the sample mean
    assert abs(var - 2.0) < 0.1 * 2.0  # Var = 2 * scale^2
    assert min(samples) < 0 < max(samples)


def test_laplace_scale_parameter():
    rng = random.Random(3)
    n = 40_000
    var = sum(laplace_sample(0.5, rng) ** 2 for _ in range(n)) / n
    assert abs(var - 0.5) < 0.1  # 2 * 0.25


def test_noise_changes_totals_but_stays_close(rng):
    vectors = [SymptomVector((10, 0, 5)) for _ in range(30)]
    a, b = _run_clients(vectors, rng)
    agg = combine_aggregates(a, b)
    noisy = add_dp_noise(agg, epsilon=1.0, rng=random.Random(11))
    assert noisy.noised and noisy.epsilon == 1.0
    assert noisy.n_reports == agg.n_reports
    # Laplace(1) tails: |noise| > 40 has probability e^-40
    for t, nt in zip(agg.totals, noisy.totals):
        assert abs(nt - t) < 40
    assert noisy.totals != agg.totals or True  # ties possible, closeness is the claim


def test_noise_applied_once():
    agg = combine_aggregates(*_run_clients(
        [SymptomVector((1, 2))], random.Random(5)))
    noisy = add_dp_noise(agg, epsilon=1.0, rng=random.Random(5))
    with pytest.raises(WrongStateError):
        add_dp_noise(noisy, epsilon=1.0, rng=random.Random(5))


def test_noise_without_an_rng_leaves_the_module_generator_alone():
    """Uninjected noise comes from the OS generator: it neither reads nor
    advances the module-level MT19937, whose outputs can be predicted."""
    agg = combine_aggregates(*_run_clients([SymptomVector((1, 2))], random.Random(5)))
    before = random.getstate()
    add_dp_noise(agg, 1.0)
    assert random.getstate() == before


def test_noise_parameter_validation(rng):
    agg = combine_aggregates(*_run_clients([SymptomVector((1,))], rng))
    nan, inf = float("nan"), float("inf")
    for eps, sens in ((0, 1.0), (-1.0, 1.0), (1.0, 0), (1.0, -2.0), (nan, 1.0), (1.0, nan),
                      (inf, 1.0), (1.0, inf)):
        with pytest.raises(NoiseParameterError):
            add_dp_noise(agg, epsilon=eps, sensitivity=sens, rng=rng)


class _Draws:
    """An rng stand-in whose exponential draws are given in advance."""

    def __init__(self, *values):
        self.values = list(values)

    def expovariate(self, _rate):
        return self.values.pop(0)


def test_noise_that_overflows_a_total_is_refused(rng):
    """Finite parameters can still give an infinite scale, or a finite
    scale whose draw overflows a total: each is refused, not turned into
    an OverflowError by the rounding."""
    agg = combine_aggregates(*_run_clients([SymptomVector((1,))], rng))
    draws = _Draws(3.0, 0.5)
    with pytest.raises(NoiseParameterError):
        add_dp_noise(agg, epsilon=1e-300, sensitivity=1e300, rng=draws)
    assert len(draws.values) == 2  # refused before any draw
    with pytest.raises(NoiseParameterError):
        add_dp_noise(agg, epsilon=1.0, sensitivity=1e308, rng=draws)
    assert add_dp_noise(agg, epsilon=1.0, sensitivity=2.0,
                        rng=_Draws(3.0, 0.5)).totals == (agg.totals[0] + 5,)


def test_a_total_beyond_float_range_is_refused():
    """An integer total no float can hold raised OverflowError when the
    float noise was added to it."""
    agg = AggregateResult(totals=(4, 10**400), n_reports=2)
    with pytest.raises(NoiseParameterError):
        add_dp_noise(agg, epsilon=1.0, rng=random.Random(1))


# -- report uploads ---------------------------------------------------------------


def _redeemed_coupon(issuer, registry, rng):
    coupon = issue_coupon_batch(issuer, 1, "02139", "healthcare",
                                registry=registry)[0]
    cid = coupon.coupon_id
    registry.mark_used(cid, 1, "2021-02-01", b"\x0a" * 32, b"\x0b" * 32)
    return coupon, cid


def _store(path, records) -> None:
    """Append accepted report records to the store, as `health report` does."""
    with contextlib.closing(durable.Journal(path)) as store, store.locked():
        store.append(records)


def _stored(path) -> list:
    return list(durable.json_lines(path.read_bytes().splitlines()))


def test_upload_paths(issuer, registry, rng):
    coupon, cid = _redeemed_coupon(issuer, registry, rng)
    vec = SymptomVector((1, 0, 2, 0))

    assert upload_report(registry, SymptomReport(vec, "2021-03-01"))
    assert upload_report(
        registry,
        SymptomReport(vec, "2021-03-01", coupon=coupon,
                      dose_ref=("VX-ALPHA", "L-1", "S-01")),
    ) == {"coupon_id": cid.hex(), "dose_ref": {"lot": "L-1", "product": "VX-ALPHA",
                                                "site": "S-01"},
          "timestamp": "2021-03-01", "vector": [1, 0, 2, 0]}
    # unredeemed coupon: registered but never marked used
    fresh = issue_coupon_batch(issuer, 1, "02139", "education",
                               registry=registry, start_index=50)[0]
    assert upload_report(registry, SymptomReport(vec, "2021-03-01", coupon=fresh)) is None
    # unknown coupon: genuine, never registered
    stray = issue_coupon_batch(issuer, 1, "02139", "education", start_index=77)[0]
    assert upload_report(registry, SymptomReport(vec, "2021-03-01", coupon=stray)) is None


def test_anonymous_records_have_no_coupon_key(issuer, registry, rng, tmp_path):
    coupon, cid = _redeemed_coupon(issuer, registry, rng)
    vec = SymptomVector((4, 4))
    anonymous = upload_report(registry, SymptomReport(vec, "2021-03-02"))
    bound = upload_report(registry, SymptomReport(vec, "2021-03-02", coupon=coupon))

    assert "coupon_id" not in anonymous  # absent key, not a blank value
    assert bound["coupon_id"] == cid.hex()

    path = tmp_path / "reports.jsonl"
    _store(path, [anonymous])
    _store(path, [bound])
    assert b"coupon_id" not in path.read_bytes().splitlines()[0]
    assert _stored(path) == [anonymous, bound]


def test_bound_report_needs_the_coupon_not_its_payload(issuer, registry, rng):
    """Coupon ids hash guessable payloads: a redeemed coupon's payload
    under any other signature binds no report."""
    coupon, cid = _redeemed_coupon(issuer, registry, rng)
    vec = SymptomVector((1,))
    junk = Coupon(payload=coupon.payload, signature=bytes(range(64)))
    assert junk.coupon_id == cid
    assert upload_report(registry, SymptomReport(vec, "2021-03-01", coupon=junk)) is None
    record = upload_report(registry, SymptomReport(vec, "2021-03-01", coupon=coupon))
    assert record["coupon_id"] == cid.hex()


def test_report_shape_validation():
    vec = SymptomVector((1, 2))
    with pytest.raises(CanonicalError):
        SymptomReport(vec, "2021-01-01", coupon=b"\x77" * 32)  # an id, not the coupon
    with pytest.raises(CanonicalError):
        SymptomReport(vec, "2021-01-01", dose_ref=("VX", "L"))


@pytest.mark.parametrize("timestamp", ["xx", "", "2021-02-30", None, 20210101])
def test_a_report_is_dated(timestamp):
    """A report's timestamp was stored as given, so ``health report
    --date xx`` stored a report dated "xx"."""
    with pytest.raises(CanonicalError):
        SymptomReport(SymptomVector((1, 2)), timestamp)


def test_upload_rejected_after_dismantle(issuer, rng):
    with Registry() as registry:
        coupon, cid = _redeemed_coupon(issuer, registry, rng)
        registry.dismantle(administrative=True)
        report = SymptomReport(SymptomVector((1,)), "2021-04-01", coupon=coupon)
        assert upload_report(registry, report) is None
        # anonymous path needs no registry at all
        assert upload_report(registry, SymptomReport(SymptomVector((1,)), "2021-04-01"))


# -- alert feeds --------------------------------------------------------------------


def _feed():
    return publish_alert_feed("2021-03-05", [
        AlertEntry("lot", "L-BAD", "recall: storage excursion"),
        AlertEntry("product", "VX-ALPHA", "updated guidance"),
        AlertEntry("site", "S-09", "follow-up requested"),
        AlertEntry("condition", "myocarditis-risk", "contact your clinic"),
    ])


def test_feed_save_load_round_trip(tmp_path):
    feed = _feed()
    path = tmp_path / "alerts.jsonl"
    save_feed(feed, path)
    again = load_feed(path)
    assert again == feed


@pytest.mark.parametrize("line", ['{"day": "2021-03-05", "key": "L-1", "message": "m"}',
                                  '["lot", "L-1", "m"]', '{"scope": "lot", "key": 7, "message": "m"}'])
def test_load_feed_refuses_a_line_that_is_not_an_entry(tmp_path, line):
    path = tmp_path / "alerts.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(CanonicalError):
        load_feed(path)


def test_failed_saves_leave_the_old_files_whole(tmp_path, monkeypatch):
    """A report append and a feed save that fail at their fsync, as on a
    full disk, leave every earlier record whole and nothing more."""
    records = [upload_report(Registry(), SymptomReport(SymptomVector((1, 2)), day))
               for day in ("2021-03-01", "2021-03-02", "2021-03-03")]
    feed = _feed()
    saves = {tmp_path / "reports.jsonl": lambda path: _store(path, records[:2]),
             tmp_path / "alerts.jsonl": lambda path: save_feed(feed, path)}
    for path, save in saves.items():
        save(path)
        before = path.read_bytes()

        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(os, "fsync", no_space)
            with pytest.raises(OSError):
                save(path)
        assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["alerts.jsonl", "reports.jsonl"]
    _store(tmp_path / "reports.jsonl", records[2:])
    assert _stored(tmp_path / "reports.jsonl") == records
    assert load_feed(tmp_path / "alerts.jsonl") == feed


def test_feed_request_carries_only_the_day():
    a = feed_request_bytes("2021-03-05")
    b = feed_request_bytes("2021-03-05")
    assert a == b  # nothing user-specific can be in here
    assert canonical_decode(a) == {"day": "2021-03-05", "kind": "alert-feed"}
    assert feed_request_bytes("2021-03-06") != a


def test_match_alerts_scopes():
    feed = _feed()
    doses = [
        DoseInfo(product="VX-ALPHA", lot="L-GOOD", date="2021-02-01",
                 dose_number=1, site_id="S-01"),
        DoseInfo(product="VX-ALPHA", lot="L-BAD", date="2021-02-22",
                 dose_number=2, site_id="S-09"),
    ]
    result = match_alerts(feed, doses, conditions=("myocarditis-risk",))
    assert result.any_match
    assert {e.scope for e in result.matched} == {
        "lot", "product", "site", "condition"}

    clean = match_alerts(feed, [
        DoseInfo(product="VX-BETA", lot="L-OK", date="2021-02-01",
                 dose_number=1, site_id="S-01")
    ])
    assert not clean.any_match and clean.matched == ()


def test_match_accepts_single_dose():
    feed = _feed()
    dose = DoseInfo(product="VX-ALPHA", lot="L-1", date="2021-02-01",
                    dose_number=1, site_id="S-01")
    assert match_alerts(feed, dose).any_match  # product hit


def test_alert_scope_validation():
    with pytest.raises(CanonicalError):
        AlertEntry("county", "X", "nope")
