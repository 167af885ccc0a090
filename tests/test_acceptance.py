"""Acceptance gate: ten pass/fail criteria over the assembled system.

Each test is one criterion; the terminal hook in conftest.py prints a
one-line verdict per criterion after the run. Criteria 1 and 5 share a
single 100-user simulation (module-scoped fixture) — criterion 1 judges
its outcome and wall time, criterion 5 scans the issuer-bound traffic
it produced.
"""

import random
import string
import threading
import time

import pytest
from scipy import stats

from vaxcred.config import FIELD_MODULUS
from vaxcred.coupons import Coupon, CouponPayload, issue_coupon_batch
from vaxcred.credentials import (
    AppBinding,
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    Passkey,
    PasskeyHash,
    Status,
    StatusPayload,
    TreeRoot,
    VaccinationLevel,
)
from vaxcred.crypto import VerifyingKey, generate_keypair, sign_canonical
from vaxcred.errors import AlreadyUsedError, AuthFailureError, VaxError
from vaxcred.groupverify import (
    TrustMode,
    accept_channel,
    make_venue,
    open_channel,
    receive_challenge,
    submit_status,
    venue_start,
)
from vaxcred.health import AggServer, SymptomVector, combine_aggregates, \
    laplace_sample, split_shares
from vaxcred.merkle import DisclosureProof, build_pii_tree, prove_disclosure, \
    verify_disclosure
from vaxcred.qr import MAX_QR_CHARS, decode_qr, encode_qr
from vaxcred.registry import Registry
from vaxcred.scenario import canonical_script, run_scenario
from vaxcred.vaccination import BadgeIssuer, PharmacySession, check_admission
from vaxcred.verification import VenueTranscript, linkage_audit, verify_badge, \
    verify_status
from vaxcred.wallet import (
    DisclosureConsent,
    PresentationKind,
    present,
    store_credentials,
    wallet_init_app,
    wallet_init_paper,
)

N_USERS = 100
LIFECYCLE_BUDGET_S = 30.0


@pytest.fixture(scope="module")
def lifecycle_run():
    script = canonical_script(N_USERS)
    start = time.monotonic()
    log, world = run_scenario(script, seed=2021, return_world=True)
    elapsed = time.monotonic() - start
    return script, log, world, elapsed


def _dose(n, date):
    return DoseInfo(product="VX-ALPHA", lot=f"L-{n}", date=date,
                    dose_number=n, site_id="S-01")


def _session(issuer, issuer_key, registry, rng):
    return PharmacySession(vk_issuer=issuer_key, registry=registry,
                           signer=BadgeIssuer(issuer, registry), rng=rng)


# -- 1: full lifecycle ---------------------------------------------------------


def test_criterion_01_lifecycle(lifecycle_run):
    script, log, world, elapsed = lifecycle_run
    summary = log.summary
    assert summary["event"] == "summary"
    assert summary["ok"] is True
    assert summary["violations"] == []
    assert log.rejections == []
    events = [e["event"] for e in log.events]
    # the run actually exercised every stage for every user
    assert events.count("dose1") == N_USERS
    assert events.count("dose2") == N_USERS
    assert events.count("verify") == N_USERS
    assert events.count("group-verify") == N_USERS // 2
    assert events.count("report") == N_USERS
    assert events.count("aggregate") == 1
    assert elapsed < LIFECYCLE_BUDGET_S, f"run took {elapsed:.1f}s"


# -- 2: unforgeability ----------------------------------------------------------


def _flip_bit(data: bytes, rng) -> bytes:
    k = rng.randrange(len(data) * 8)
    out = bytearray(data)
    out[k // 8] ^= 1 << (k % 8)
    return bytes(out)


def test_criterion_02_unforgeability(issuer, issuer_key):
    rng = random.Random(0xF0E5)
    with Registry() as registry:
        honest = issue_coupon_batch(issuer, 64, "02139", "healthcare",
                                    registry=registry)
        adversary, adv_key = generate_keypair(rng)

        false_accepts = 0
        for i in range(10_000):
            base = honest[i % len(honest)]
            mode = i % 4
            if mode == 0:  # re-signed by an adversary who saw the payload
                forged = Coupon(base.payload,
                                sign_canonical(adversary, base.payload.to_wire()))
            elif mode == 1:  # signature bit-flip
                forged = Coupon(base.payload, _flip_bit(base.signature, rng))
            elif mode == 2:  # payload tweak under the original signature
                payload = CouponPayload(
                    index=base.payload.index + 1_000_000 + i,
                    zip_code=base.payload.zip_code,
                    job_type=base.payload.job_type,
                )
                forged = Coupon(payload, base.signature)
            else:  # wholly invented
                payload = CouponPayload(index=2_000_000 + i,
                                        zip_code=f"{rng.randrange(100000):05d}",
                                        job_type="invented")
                forged = Coupon(payload, rng.randbytes(64))
            try:
                check_admission(issuer_key, registry, forged)
            except VaxError:
                continue
            false_accepts += 1
        assert false_accepts == 0

        # spliced badges and statuses: cross-holder and cross-type signature
        # transplants, payload tampering under a stale signature
        creds = []
        session = _session(issuer, issuer_key, registry, rng)
        for k in range(24):
            coupon = honest[k]
            if k % 2:
                wallet = wallet_init_app(
                    [("name", f"H{k}"), ("dob", f"19{60 + k}-01-01")],
                    coupon=coupon, rng=rng)
                badge, status = session.issue_credentials_app(
                    coupon, _dose(1, "2021-02-01"),
                    wallet.pii_tree.root, wallet.verifying_key)
            else:
                badge, status, _ = session.issue_credentials_paper(
                    coupon, _dose(1, "2021-02-01"),
                    [("name", f"H{k}"), ("dob", f"19{60 + k}-01-01")])
            creds.append((badge, status))

        false_accepts = 0
        for i in range(10_000):
            a = creds[i % len(creds)]
            b = creds[(i * 7 + 1) % len(creds)]
            if a is b:
                b = creds[(i * 7 + 2) % len(creds)]
            mode = i % 5
            if mode == 0:  # badge payload under another holder's signature
                spliced = Badge(a[0].info, b[0].signature)
                ok = verify_badge(issuer_key, spliced) is not None
            elif mode == 1:  # status payload under another holder's signature
                spliced = Status(a[1].payload, b[1].signature)
                ok = verify_status(issuer_key, spliced) is not None
            elif mode == 2:  # status signature transplanted onto a badge
                spliced = Badge(a[0].info, a[1].signature)
                ok = verify_badge(issuer_key, spliced) is not None
            elif mode == 3:  # level escalation under the real signature
                payload = StatusPayload(level=VaccinationLevel.FULLY,
                                        binding=a[1].payload.binding,
                                        date=a[1].payload.date)
                ok = verify_status(issuer_key,
                                   Status(payload, a[1].signature)) is not None
            else:  # random signature bytes
                spliced = Status(a[1].payload, _flip_bit(a[1].signature, rng))
                ok = verify_status(issuer_key, spliced) is not None
            if ok:
                false_accepts += 1
        assert false_accepts == 0


# -- 3: concurrent double-spend ---------------------------------------------------


def test_criterion_03_double_spend(issuer, issuer_key):
    n_coupons, n_threads = 1000, 8
    rng = random.Random(0xD0B1)
    with Registry() as registry:
        coupons = issue_coupon_batch(issuer, n_coupons, "02139", "healthcare",
                                     registry=registry)
        barriers = [threading.Barrier(n_threads) for _ in range(n_coupons)]
        wins = [[0] * n_coupons for _ in range(n_threads)]
        errors = []

        def redeem_all(t: int):
            # distinct rng per thread: distinct salts, distinct request digests
            session = _session(issuer, issuer_key, registry,
                               random.Random(0xBEEF + t))
            for k, coupon in enumerate(coupons):
                barriers[k].wait()
                try:
                    session.issue_credentials_paper(
                        coupon, _dose(1, "2021-02-01"),
                        [("name", f"claimant {t}"), ("dob", "1970-01-01")],
                    )
                    wins[t][k] = 1
                except AlreadyUsedError:
                    pass
                except Exception as exc:  # anything else is a real failure
                    errors.append((t, k, repr(exc)))

        threads = [threading.Thread(target=redeem_all, args=(t,))
                   for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        assert errors == []
        per_coupon = [sum(wins[t][k] for t in range(n_threads))
                      for k in range(n_coupons)]
        assert sum(per_coupon) == n_coupons
        assert set(per_coupon) == {1}  # exactly one winner each, never zero
        for coupon in coupons:
            assert registry.check(coupon.coupon_id).is_used


# -- 4: selective disclosure -------------------------------------------------------


def test_criterion_04_selective_disclosure():
    rng = random.Random(0x5E1EC7)
    labels = [f"field{i}" for i in range(8)]
    # distinctive values: no value is a substring of another or of a label
    entries = [(lab, f"secret-{lab}-{rng.randrange(10**9):09d}")
               for lab in labels]
    tree = build_pii_tree(entries, rng=rng)
    value_of = dict(entries)
    salt_of = {label: salt for label, _, salt in tree.leaves}

    for mask in range(1, 256):
        subset = [labels[i] for i in range(8) if mask >> i & 1]
        proof = prove_disclosure(tree, subset)
        assert verify_disclosure(tree.root, proof)
        assert sorted(l for l, _, _ in proof.disclosed) == sorted(subset)
        wire = proof.to_bytes()
        for label in labels:
            if label not in subset:
                assert value_of[label].encode("utf-8") not in wire
                assert salt_of[label] not in wire

    # exhaustive single-bit tampering of one representative proof
    proof = prove_disclosure(tree, [labels[0], labels[3], labels[6]])
    wire = proof.to_bytes()
    rejected = 0
    total = len(wire) * 8
    for k in range(total):
        mutated = bytearray(wire)
        mutated[k // 8] ^= 1 << (k % 8)
        try:
            candidate = DisclosureProof.from_bytes(bytes(mutated))
        except Exception:
            rejected += 1
            continue
        if not verify_disclosure(tree.root, candidate):
            rejected += 1
    assert rejected == total  # 100% rejection


# -- 5: issuer privacy --------------------------------------------------------------


def test_criterion_05_issuer_privacy(lifecycle_run):
    script, log, world, elapsed = lifecycle_run
    blob = b"".join(world.signer.received_requests)
    assert blob  # the scan target actually contains the issuer traffic
    checked = 0
    for action in script.actions:
        for label, value in action.get("pii", ()):
            assert value.encode("utf-8") not in blob, (
                f"PII plaintext {value!r} present in issuer-bound bytes"
            )
            checked += 1
    assert checked == 3 * N_USERS * 2  # three fields, wallet init + dose 1


# -- 6: group verification matrix ----------------------------------------------------


def test_criterion_06_group_verification():
    admitted = {"vaccinated": 0, "unvaccinated": 0, "forged": 0,
                "mitm": 0, "stale": 0}
    rotation = 60
    for seed in range(50):
        rng = random.Random(0xACCE55 ^ seed)
        issuer, issuer_key = generate_keypair(rng)
        with Registry() as registry:
            session = _session(issuer, issuer_key, registry, rng)
            coupons = issue_coupon_batch(issuer, 2, "02139", "healthcare",
                                         registry=registry)

            def app_wallet(coupon, doses):
                wallet = wallet_init_app([("name", f"u{seed}")],
                                         coupon=coupon, rng=rng)
                badge, status = session.issue_credentials_app(
                    coupon, _dose(1, "2021-02-01"),
                    wallet.pii_tree.root, wallet.verifying_key)
                store_credentials(wallet, badge, status)
                if doses == 2:
                    badge, status = session.second_dose(
                        badge, _dose(2, "2021-02-22"),
                        user_key=wallet.verifying_key)
                    store_credentials(wallet, badge, status)
                return wallet

            full = app_wallet(coupons[0], doses=2)
            partial = app_wallet(coupons[1], doses=1)
            venue = make_venue(issuer, f"V-{seed}", rng)
            gate = venue_start(venue, [issuer_key], rotation_period=rotation,
                               rng=rng)
            now = 1000.0 * (seed + 1)

            def attempt(status, handle, at):
                """One admission attempt; returns the door code or None."""
                channel, hello = open_channel(
                    venue.advertisement, TrustMode.ISSUER_SIGNED,
                    issuer_key=issuer_key, rng=rng)
                venue_end = accept_channel(venue, hello)
                frame = submit_status(channel, status)
                decision, response = gate.process_status(venue_end, frame, at)
                if not decision.accepted:
                    return None
                try:
                    code = receive_challenge(channel, handle, response)
                except AuthFailureError:
                    return None
                return code if gate.guard_check(code, at) else None

            # honest, fully vaccinated, on time (plus the one-window grace)
            code = attempt(full.status, full.key, now)
            if code is not None and gate.guard_check(code, now + rotation):
                admitted["vaccinated"] += 1
            # honest but not fully vaccinated
            if attempt(partial.status, partial.key, now) is not None:
                admitted["unvaccinated"] += 1
            # forged status: real payload, broken signature
            forged = Status(full.status.payload,
                            _flip_bit(full.status.signature,
                                      random.Random(seed)))
            if attempt(forged, full.key, now) is not None:
                admitted["forged"] += 1
            # relay: attacker forwards the victim's genuine status but holds
            # a different key, so the challenge never opens for them
            attacker, _ = generate_keypair(rng)
            if attempt(full.status, attacker, now) is not None:
                admitted["mitm"] += 1
            # stale replay: a code minted now, shown two windows later
            late = attempt(full.status, full.key, now)
            if late is not None and gate.guard_check(late, now + 2 * rotation):
                admitted["stale"] += 1

    assert admitted == {"vaccinated": 50, "unvaccinated": 0, "forged": 0,
                        "mitm": 0, "stale": 0}


# -- 7: aggregation oracle equivalence -------------------------------------------------


def test_criterion_07_aggregation_oracle():
    rng = random.Random(0xA66)
    dim = 8
    for _ in range(100):
        n_clients = rng.randrange(1, 65)
        vectors = [
            SymptomVector(tuple(rng.randrange(2 ** 16) for _ in range(dim)))
            for _ in range(n_clients)
        ]
        a, b = AggServer(dim, p=FIELD_MODULUS), AggServer(dim, p=FIELD_MODULUS)
        for vec in vectors:
            bundle = split_shares(vec, rng=rng)
            a.accumulate(bundle.share_a)
            b.accumulate(bundle.share_b)
        agg = combine_aggregates(a, b)
        oracle = tuple(sum(col) for col in zip(*(v.counts for v in vectors)))
        assert agg.totals == oracle
        assert agg.n_reports == n_clients

    # single-server view: binned chi-square uniformity at the full modulus,
    # and indistinguishability between two extreme secrets, 5% level
    n_samples, n_bins = 10_000, 64

    def binned(secret: int):
        counts = [0] * n_bins
        vec = SymptomVector((secret,))
        for _ in range(n_samples):
            share = split_shares(vec, rng=rng).share_b[0]
            counts[share * n_bins // FIELD_MODULUS] += 1
        return counts

    low, high = binned(0), binned(2 ** 16 - 1)
    for counts in (low, high):
        gof = stats.chisquare(counts)
        assert gof.pvalue > 0.05, f"share bins not uniform (p={gof.pvalue:.4f})"
    two_sample = stats.chi2_contingency([low, high])
    assert two_sample.pvalue > 0.05, (
        f"server view depends on the secret (p={two_sample.pvalue:.4f})"
    )


# -- 8: differential-privacy calibration --------------------------------------------------


def test_criterion_08_dp_calibration():
    rng = random.Random(0xD1CE)
    n = 100_000
    epsilon, sensitivity = 1.0, 1.0
    scale = sensitivity / epsilon
    samples = [laplace_sample(scale, rng) for _ in range(n)]
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    target_var = 2.0 * scale * scale
    sigma = target_var ** 0.5
    assert abs(var - target_var) <= 0.10 * target_var
    assert abs(mean) < 3 * sigma / n ** 0.5


# -- 9: traceability ledger ------------------------------------------------------------


def test_criterion_09_traceability_ledger(issuer, issuer_key, rng):
    with Registry() as registry:
        session = _session(issuer, issuer_key, registry, rng)
        coupons = issue_coupon_batch(issuer, 3, "02139", "healthcare",
                                     registry=registry)

        paper = wallet_init_paper(coupon=coupons[0])
        store_credentials(paper, *session.issue_credentials_paper(
            coupons[0], _dose(1, "2021-02-01"),
            [("name", "Paper P"), ("dob", "1969-09-09")]))

        def app(coupon, name):
            wallet = wallet_init_app([("name", name)], coupon=coupon, rng=rng)
            badge, status = session.issue_credentials_app(
                coupon, _dose(1, "2021-02-01"),
                wallet.pii_tree.root, wallet.verifying_key)
            store_credentials(wallet, badge, status)
            return wallet

        app_one = app(coupons[1], "App A")
        app_two = app(coupons[2], "App B")

    # paper variant: showing the passkey at two venues links the visits
    consent = DisclosureConsent(granted=True)
    paper_visits = [
        VenueTranscript.record("V-A", present(
            paper, PresentationKind.STATUS_WITH_PASSKEY, consent)),
        VenueTranscript.record("V-B", present(
            paper, PresentationKind.STATUS_WITH_PASSKEY, consent)),
    ]
    report = linkage_audit(paper_visits)
    assert report.any_linkable is True
    assert report.linkable(0, 1)
    assert "commitment" in report.pairs[0][2]

    # app variant: even a bare status links visits through the tree root
    app_visits = [
        VenueTranscript.record("V-A", present(
            app_one, PresentationKind.STATUS_ONLY)),
        VenueTranscript.record("V-B", present(
            app_one, PresentationKind.STATUS_ONLY)),
    ]
    report = linkage_audit(app_visits)
    assert report.any_linkable is True
    assert "pii-root" in report.pairs[0][2]

    # control: different holders do not link
    cross = linkage_audit([
        VenueTranscript.record("V-A", present(
            app_one, PresentationKind.STATUS_ONLY)),
        VenueTranscript.record("V-B", present(
            app_two, PresentationKind.STATUS_ONLY)),
    ])
    assert cross.any_linkable is False


# -- 10: QR encoding round trips ----------------------------------------------------------


def _rand_word(rng, n_min=1, n_max=12):
    alphabet = string.ascii_letters + string.digits + "-."
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randrange(n_min, n_max + 1)))


def _rand_date(rng):
    return f"20{rng.randrange(20, 23)}-{rng.randrange(1, 13):02d}-" \
           f"{rng.randrange(1, 29):02d}"


def _rand_key(rng):
    return VerifyingKey(rng.randbytes(64))


def _rand_dose_history(rng):
    d1 = _dose(1, "2021-%02d-%02d" % (rng.randrange(1, 7), rng.randrange(1, 29)))
    d1 = DoseInfo(product=_rand_word(rng), lot=_rand_word(rng), date=d1.date,
                  dose_number=1, site_id=_rand_word(rng))
    if rng.random() < 0.5:
        return (d1,)
    d2 = DoseInfo(product=_rand_word(rng), lot=_rand_word(rng),
                  date="2021-%02d-%02d" % (rng.randrange(7, 13),
                                           rng.randrange(1, 29)),
                  dose_number=2, site_id=_rand_word(rng))
    return (d1, d2)


def _rand_payload(rng, kind: int):
    if kind == 0:
        return Coupon(
            CouponPayload(index=rng.randrange(2 ** 32),
                          zip_code=f"{rng.randrange(100000):05d}",
                          job_type=_rand_word(rng)),
            rng.randbytes(64),
        )
    if kind == 1:
        binding = (Commitment(rng.randbytes(32)) if rng.random() < 0.5
                   else TreeRoot(rng.randbytes(32)))
        coupon = _rand_payload(rng, 0)
        return Badge(BadgeInfo(dose_history=_rand_dose_history(rng),
                               coupon=coupon, binding=binding),
                     rng.randbytes(64))
    if kind == 2:
        level = VaccinationLevel(rng.randrange(3))
        binding = (PasskeyHash(rng.randbytes(32)) if rng.random() < 0.5
                   else AppBinding(_rand_key(rng), rng.randbytes(32)))
        date = None if level == 0 else _rand_date(rng)
        return Status(StatusPayload(level=level, binding=binding, date=date),
                      rng.randbytes(64))
    if kind == 3:
        n = rng.randrange(1, 5)
        pii = sorted((f"label{i}", _rand_word(rng)) for i in range(n))
        return Passkey(pii=tuple(pii), salt=rng.randbytes(16))
    entries = [(f"k{i}", _rand_word(rng)) for i in range(rng.randrange(1, 4))]
    tree = build_pii_tree(entries, rng=rng)
    subset = [entries[i][0] for i in range(len(entries)) if rng.random() < 0.7]
    return prove_disclosure(tree, subset or [entries[0][0]])


def test_criterion_10_encoding():
    rng = random.Random(0xEAC0DE)
    texts = {}
    for i in range(10_000):
        payload = _rand_payload(rng, i % 5)
        raw = payload.to_bytes()
        text = encode_qr(payload)
        assert len(text) <= MAX_QR_CHARS
        back = decode_qr(text)
        assert type(back) is type(payload)
        assert back.to_bytes() == raw  # bit-exact round trip
        texts.setdefault(text, raw)
        assert texts[text] == raw  # equal text implies equal payload
    assert len(texts) == len(set(texts.values()))  # injective over the corpus
