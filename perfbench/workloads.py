"""The three benchmark workloads, driven through the public vaxcred API.

Each workload is a class whose constructor is the set-up (everything
before the timed phase), with:

* ``run(seconds, begin_op=None) -> Phase``: the timed phase. ``begin_op``
  is only passed by the traced run; it tags the spans of one operation.
* ``check(phase) -> list[str]``: post-run correctness checks. Problems are
  described without any holder data.
* ``secrets() -> set[bytes]``: every private value the run handled
  (identity field values, coupon ids, holder keys, salts, request
  digests), for the privacy scan of the benchmark's own output.
* ``close()``: stop the server and remove temporary files.

Every input is drawn from ``random.Random`` seeded by the workload seed.
Calls go through module attributes (``qr.decode_qr``) so that the traced
run, which rebinds those attributes, sees them.

Each set-up builds the benchmark's own scaffolding (holders, their keys,
texts and scripts) first and freezes it out of the cyclic collector with
``freeze_scaffolding()``; the program state it builds afterwards (the
registry, the issuer, the server, the door) stays collectable, so its
collection cost shows in the timed phase. ``close()`` unfreezes.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from vaxcred import (
    coupons,
    credentials,
    crypto,
    errors,
    groupverify,
    merkle,
    qr,
    registry,
    scenario,
    service,
    vaccination,
    verification,
    wallet,
)

ZIP = "02139"
JOB = "healthcare"
PRODUCT = "VX-ALPHA"
DOSE1_DATE = "2021-03-01"
DOSE2_DATE = "2021-03-22"
FULLY = credentials.VaccinationLevel.FULLY
DOSE1 = credentials.VaccinationLevel.DOSE1


@dataclass
class Phase:
    """What one timed phase did. ``failures`` counts operations whose
    outcome differed from the expected one, by operation kind."""

    ops: int = 0
    elapsed_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)  # (kind, outcome) -> n
    failures: Counter = field(default_factory=Counter)  # kind -> n
    log_bytes: int = 0  # registry log growth during the phase (issue only)


def freeze_scaffolding() -> None:
    """Move every object alive now out of the cyclic collector, so the
    timed phase's collections do not scan the benchmark's inputs."""
    gc.collect()
    gc.freeze()


def holder_pii(seed: int, i: int) -> tuple:
    """Identity fields of holder ``i``, sorted by label. The values are
    distinct per seed and holder, so a byte scan can find any leak."""
    return (
        ("dob", f"19{40 + i % 60:02d}-{1 + i % 12:02d}-{1 + i % 28:02d}"),
        ("name", f"Holder {seed:x}-{i:05d}"),
        ("zip", f"{ZIP}-{(seed * 7919 + i) % 10000:04d}"),
    )


def _dose(number: int, site: str) -> credentials.DoseInfo:
    return credentials.DoseInfo(
        product=PRODUCT,
        lot=f"L-{number}",
        date=DOSE1_DATE if number == 1 else DOSE2_DATE,
        dose_number=number,
        site_id=site,
    )


def _key_secrets(vk) -> list:
    return [vk.sig_bytes, vk.enc_bytes]


def _wallet_secrets(state) -> list:
    out = []
    if state.coupon is not None:
        out.append(state.coupon.coupon_id)
    if state.passkey is not None:
        out.append(state.passkey.salt)
        out.extend(v.encode() for _, v in state.passkey.pii)
    if state.key is not None:
        out.extend(_key_secrets(state.key.verifying_key))
    if state.pii_tree is not None:
        for _, value, salt in state.pii_tree.leaves:
            out.extend((value.encode(), salt))
    return out


def _request_digests(issuer) -> list:
    return [crypto.sha256(r) for r in issuer.received_requests]


# -- issue: the write path ----------------------------------------------------


@dataclass
class _Holder:
    index: int
    pii: tuple
    coupon: object
    key: object = None  # KeyHandle, app holders only
    tree: object = None  # PiiTree, app holders only
    badge: object = None
    status: object = None
    passkey: object = None


class Issue:
    """Two pharmacy counters in a closed loop against a loopback signing
    server backed by an fsync'd registry log.

    Each counter owns every second holder (half paper, half app) and
    draws its next operation from its own seeded generator: a first dose
    for a new holder, a second dose for the oldest holder waiting, an
    identical retry of its last request (~5%), or an impostor's first-dose
    request for a spent coupon (~5%).
    """

    COUNTERS = 2
    RETRY_SHARE = 0.05
    SPENT_SHARE = 0.05
    HOLDERS_PER_SECOND = 300  # ~2x the first doses issued per second at 350 ops/s

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        n = max(100, int(self.HOLDERS_PER_SECOND * seconds))
        self.holders = []
        for i in range(n):
            pii = holder_pii(seed, i)
            h = _Holder(index=i, pii=pii, coupon=None)
            if (i // self.COUNTERS) % 2:  # each counter sees both kinds
                state = wallet.wallet_init_app(pii, rng=rng)
                h.key, h.tree = state.key, state.pii_tree
            self.holders.append(h)
        freeze_scaffolding()
        self.handle, self.vk = crypto.generate_keypair(rng)
        self.dir = tempfile.mkdtemp(prefix="registry-", dir=workdir)
        self.log_path = os.path.join(self.dir, "registry.log")
        self.registry = registry.Registry(self.log_path)
        self.issuer = vaccination.BadgeIssuer(self.handle, self.registry)
        self.server = service.serve(self.issuer)
        batch = coupons.issue_coupon_batch(
            self.handle, n, ZIP, JOB, registry=self.registry
        )
        for h, coupon in zip(self.holders, batch):
            h.coupon = coupon  # handed out by the distributor
        self.started = set()  # holder indices that received a first dose
        self._pending = []  # per counter: holders still waiting for dose 2
        self._issued = []  # (badge, status, level) to verify after the run

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.registry.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        gc.unfreeze()

    def floor_status(self):
        """The issuer key and one level-2 status the server signed."""
        return self.vk, next(s for _, s, level in self._issued if level == 2)

    def _client(self):
        host, port = self.server.server_address[:2]
        return service.SigningClient(host, port)

    def _session(self, client, rng):
        return vaccination.PharmacySession(
            vk_issuer=self.vk, registry=self.registry, signer=client, rng=rng
        )

    def _give_dose(self, session, h, dose):
        app_key = h.key.verifying_key if h.key is not None else None
        if dose.dose_number == 1:
            if app_key is None:
                h.badge, h.status, h.passkey = session.issue_credentials_paper(
                    h.coupon, dose, h.pii
                )
            else:
                h.badge, h.status = session.issue_credentials_app(
                    h.coupon, dose, h.tree.root, app_key
                )
        else:
            h.badge, h.status = session.second_dose(h.badge, dose, user_key=app_key)

    def run(self, seconds: float, begin_op=None) -> Phase:
        log_start = os.path.getsize(self.log_path)
        results = [None] * self.COUNTERS
        start = threading.Barrier(self.COUNTERS + 1)
        threads = [
            threading.Thread(
                target=self._counter, args=(k, seconds, start, results, begin_op)
            )
            for k in range(self.COUNTERS)
        ]
        for t in threads:
            t.start()
        start.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        phase = Phase()
        for res in results:
            if res is None:
                raise RuntimeError("a pharmacy counter thread died")
            counter_phase, end = res
            phase.ops += counter_phase.ops
            phase.latencies_ms += counter_phase.latencies_ms
            phase.outcomes += counter_phase.outcomes
            phase.failures += counter_phase.failures
            phase.elapsed_s = max(phase.elapsed_s, end - t0)
        phase.log_bytes = os.path.getsize(self.log_path) - log_start
        return phase

    def _counter(self, k, seconds, start, results, begin_op):
        rng = random.Random(f"{self.seed}/counter/{k}")
        session = self._session(self._client(), random.Random(f"{self.seed}/salt/{k}"))
        client = session.signer
        site = f"S-{k + 1:02d}"
        dose1, dose2 = _dose(1, site), _dose(2, site)
        fresh = deque(self.holders[k :: self.COUNTERS])
        pending = deque()
        spent = []
        last = None
        phase = Phase()
        self._pending.append(pending)
        start.wait()
        deadline = time.perf_counter() + seconds
        op_id = k
        while time.perf_counter() < deadline:
            u = rng.random()
            if u < self.RETRY_SHARE and last is not None:
                kind, h = "retry", last
            elif u < self.RETRY_SHARE + self.SPENT_SHARE and spent:
                kind, h = "spent", spent[rng.randrange(len(spent))]
            elif pending and (not fresh or rng.random() < 0.5):
                kind, h = "dose2", pending.popleft()
            elif fresh:
                kind, h = "dose1", fresh.popleft()
            else:
                break  # population exhausted: the phase ends early
            if kind == "retry":
                before = self.registry.check(h.coupon.coupon_id).stage
            elif kind == "spent":
                impostor = credentials.Commitment(rng.randbytes(32))
            if begin_op is not None:
                begin_op(op_id)
            op_id += self.COUNTERS
            t0 = time.perf_counter()
            if kind == "retry":
                outcome = self._retry(client, h)
            elif kind == "spent":
                outcome = self._spent(client, h, dose1, impostor)
            else:
                outcome = self._dose_op(session, h, dose1 if kind == "dose1" else dose2)
            t1 = time.perf_counter()
            if begin_op is not None:
                begin_op(-1)  # the checks below are not part of the operation
            if kind == "retry":
                if self.registry.check(h.coupon.coupon_id).stage is not before:
                    outcome = "retry-moved-registry"
            elif outcome == "ok":
                self._issued.append((h.badge, h.status, int(h.status.payload.level)))
                if kind == "dose1":
                    self.started.add(h.index)
                    pending.append(h)
                    spent.append(h)
                last = h
            phase.ops += 1
            phase.latencies_ms.append((t1 - t0) * 1e3)
            phase.outcomes[(kind, outcome)] += 1
            if outcome != {"retry": "identical", "spent": "already-used"}.get(kind, "ok"):
                phase.failures[kind] += 1
        results[k] = (phase, time.perf_counter())

    def _dose_op(self, session, h, dose) -> str:
        try:
            self._give_dose(session, h, dose)
        except errors.VaxError as exc:
            return exc.code
        except Exception as exc:  # counted as a failure, never re-raised
            return f"exception:{type(exc).__name__}"
        return "ok"

    @staticmethod
    def _retry(client, h) -> str:
        try:
            sb, ss = client.sign_badge_request(h.badge.info, h.status.payload)
        except errors.VaxError as exc:
            return exc.code
        except Exception as exc:
            return f"exception:{type(exc).__name__}"
        same = sb == h.badge.signature and ss == h.status.signature
        return "identical" if same else "different-signatures"

    @staticmethod
    def _spent(client, h, dose1, impostor) -> str:
        info = credentials.BadgeInfo(dose_history=(dose1,), coupon=h.coupon, binding=impostor)
        payload = credentials.StatusPayload(
            level=DOSE1,
            binding=credentials.PasskeyHash(impostor.digest),
            date=dose1.date,
        )
        try:
            client.sign_badge_request(info, payload)
        except errors.VaxError as exc:
            return exc.code
        except Exception as exc:
            return f"exception:{type(exc).__name__}"
        return "signed"

    def check(self, phase: Phase) -> list:
        problems = []
        # finish the courses the timed phase left half done (not timed)
        session = self._session(self._client(), random.Random(f"{self.seed}/drain"))
        for pending in self._pending:
            for h in pending:
                if self._dose_op(session, h, _dose(2, "S-99")) != "ok":
                    problems.append("a pending second dose failed after the run")
                    continue
                self._issued.append((h.badge, h.status, 2))
        for badge, status, level in self._issued:
            parsed = verification.verify_badge(self.vk, badge)
            if parsed is None or int(parsed.level) != level:
                problems.append("a returned badge signature does not verify")
            if verification.verify_status(self.vk, status) != level:
                problems.append("a returned status signature does not verify")
        snap = self.registry.snapshot()
        for h in self.holders:
            want = ("dose2", DOSE2_DATE) if h.index in self.started else ("unused", None)
            if snap.get(h.coupon.coupon_id.hex()) != want:
                problems.append("a coupon is not at its expected registry stage")
        with registry.Registry(self.log_path) as reopened:
            if reopened.snapshot() != snap:
                problems.append("the registry log does not replay to the live snapshot")
        return problems

    def secrets(self) -> set:
        out = set(_request_digests(self.issuer))
        for h in self.holders:
            out.add(h.coupon.coupon_id)
            out.update(v.encode() for _, v in h.pii)
            if h.passkey is not None:
                out.add(h.passkey.salt)
            if h.key is not None:
                out.update(_key_secrets(h.key.verifying_key))
                out.update(salt for _, _, salt in h.tree.leaves)
        return out


# -- venue: the read path -----------------------------------------------------


def venue_verify(issuer_key, texts: dict, required_labels=(), required_level=2):
    """What ``vaxcred venue verify`` does with the texts a holder shows:
    decode each, build the presentation, verify it, apply the level
    policy. Returns ("accept", level, disclosed) or ("reject", reason)."""
    try:
        status = qr.decode_qr(texts["status"], credentials.Status) if "status" in texts else None
        badge = qr.decode_qr(texts["badge"], credentials.Badge) if "badge" in texts else None
        passkey = (
            qr.decode_qr(texts["passkey"], credentials.Passkey) if "passkey" in texts else None
        )
        proof = qr.decode_qr(texts["proof"], merkle.DisclosureProof) if "proof" in texts else None
    except errors.VaxError as exc:
        return ("reject", exc.code)
    kind = wallet.PresentationKind
    if passkey is not None:
        shown = wallet.Presentation(kind=kind.STATUS_WITH_PASSKEY, status=status, passkey=passkey)
    elif proof is not None:
        shown = wallet.Presentation(kind=kind.STATUS_WITH_DISCLOSURE, status=status, proof=proof)
    elif status is not None:
        shown = wallet.Presentation(kind=kind.STATUS_ONLY, status=status)
    else:
        shown = wallet.Presentation(kind=kind.BADGE_ONLY, badge=badge)
    result = verification.verify_presentation(issuer_key, shown, required_labels)
    if isinstance(result, verification.Reject):
        return ("reject", result.reason)
    if int(result.level) < required_level:
        return ("reject", "below-policy")
    return ("accept", int(result.level), tuple(result.disclosed))


def gate_round_trip(door, venue, issuer_key, status, holder_key, now, delay, rng):
    """One contactless admission: channel, status, challenge, guard.
    Returns ("accept", 2, ()) or ("reject", reason)."""
    try:
        channel, hello = groupverify.open_channel(
            venue.advertisement, groupverify.TrustMode.ISSUER_SIGNED,
            issuer_key=issuer_key, rng=rng,
        )
        venue_end = groupverify.accept_channel(venue, hello)
        frame = groupverify.submit_status(channel, status)
        decision, response = door.process_status(venue_end, frame, now)
        if not decision.accepted:
            return ("reject", decision.reason)
        code = groupverify.receive_challenge(channel, holder_key, response)
    except errors.VaxError as exc:
        return ("reject", exc.code)
    if not door.guard_check(code, now + delay):
        return ("reject", "stale-code")
    return ("accept", int(FULLY), ())


class Venue:
    """One door scanner in a closed loop over a pre-built population.

    Holders are shown repeatedly in seeded order, as at different venues.
    85% of operations are honest and 15% are hostile, which must be
    refused for their expected reason.

    The honest shares are those of the venue visits that
    ``scenario.canonical_script`` defines: per two holders, one paper
    status+passkey check, one app status+disclosure check and one app gate
    round trip, so 1:1:1. The hostile 15% is split evenly over five
    attacks. Status-only and badge-only presentations are not part of that
    visit; they are shown as the carriers of the hostile texts (a
    transplanted or level-1 status, a bit-flipped badge).
    """

    POPULATION = 400
    LABELS = ("name",)
    ROTATION = 60
    GATE_DELAY = 5
    # kind -> (weight, holder variant, expected outcome or None if per-holder);
    # weights are in 1/300: 85% honest at 1:1:1, 15% hostile at 3% each
    MIX = {
        "status+passkey": (85, "paper", None),
        "status+disclosure": (85, "app", None),
        "gate": (85, "app", ("accept", 2, ())),
        "bit-flip": (9, None, ("reject", "bad-signature")),
        "transplant": (9, None, ("reject", "bad-signature")),
        "level-1": (9, None, ("reject", "below-policy")),
        "relay": (9, "app", ("reject", "auth-failure")),
        "stale-code": (9, "app", ("reject", "stale-code")),
    }

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        rng = random.Random(seed)
        handle, self.vk = crypto.generate_keypair(rng)
        reg = registry.Registry()
        self.issuer = vaccination.BadgeIssuer(handle, reg)
        batch = coupons.issue_coupon_batch(handle, self.POPULATION, ZIP, JOB, registry=reg)
        pharmacy = vaccination.PharmacySession(
            vk_issuer=self.vk, registry=reg, signer=self.issuer, rng=rng
        )
        consent = wallet.DisclosureConsent(granted=True, labels=self.LABELS)
        self.wallets, self.texts = [], []
        for i, coupon in enumerate(batch):
            pii = holder_pii(seed, i)
            if i % 2:
                state = wallet.wallet_init_app(pii, coupon=coupon, rng=rng)
                key = state.verifying_key
                badge, status = pharmacy.issue_credentials_app(
                    coupon, _dose(1, "S-01"), state.pii_tree.root, key
                )
                wallet.store_credentials(state, badge, status)
            else:
                state = wallet.wallet_init_paper(coupon=coupon)
                key = None
                badge, status, passkey = pharmacy.issue_credentials_paper(
                    coupon, _dose(1, "S-01"), pii
                )
                wallet.store_credentials(state, badge, status, passkey)
            level1 = state.status
            badge, status = pharmacy.second_dose(state.badge, _dose(2, "S-01"), user_key=key)
            wallet.store_credentials(state, badge, status)
            texts = {
                "status": qr.encode_qr(state.status),
                "badge": qr.encode_qr(state.badge),
                "level-1": qr.encode_qr(level1),
            }
            if key is None:
                texts["passkey"] = qr.encode_qr(state.passkey)
            else:
                shown = wallet.present(state, wallet.PresentationKind.STATUS_WITH_DISCLOSURE, consent)
                texts["proof"] = qr.encode_qr(shown.proof)
            self.wallets.append(state)
            self.texts.append(texts)
        for i, texts in enumerate(self.texts):
            texts["bit-flip"] = _flip_signature_char(texts["badge"], rng)
            donor = self.wallets[(i + 1) % len(self.wallets)].status
            forged = credentials.Status(self.wallets[i].status.payload, donor.signature)
            texts["transplant"] = qr.encode_qr(forged)
        freeze_scaffolding()
        self.venue = groupverify.make_venue(handle, "V-DOOR", rng)
        self.door = groupverify.venue_start(
            self.venue, [self.vk], required_level=FULLY,
            rotation_period=self.ROTATION, rng=rng,
        )
        self.relay_key, _ = crypto.generate_keypair(rng)
        self.gate_rng = random.Random(f"{seed}/gate")
        self.by_variant = {
            None: list(range(len(self.wallets))),
            "paper": [i for i, w in enumerate(self.wallets) if w.variant == "paper"],
            "app": [i for i, w in enumerate(self.wallets) if w.variant == "app"],
        }

    def close(self) -> None:
        gc.unfreeze()

    def floor_status(self):
        """The issuer key and one holder's level-2 status."""
        return self.vk, self.wallets[0].status

    def _expected(self, kind, i):
        fixed = self.MIX[kind][2]
        if fixed is not None:
            return fixed
        state = self.wallets[i]
        disclosed = ()
        if kind == "status+passkey":
            disclosed = tuple(state.passkey.pii)
        elif kind == "status+disclosure":
            disclosed = tuple(kv for kv in holder_pii(self.seed, i) if kv[0] in self.LABELS)
        return ("accept", int(FULLY), disclosed)

    def _op(self, kind, i, now):
        texts = self.texts[i]
        if kind == "status+passkey":
            return venue_verify(self.vk, {"status": texts["status"], "passkey": texts["passkey"]})
        if kind == "status+disclosure":
            return venue_verify(
                self.vk, {"status": texts["status"], "proof": texts["proof"]}, self.LABELS
            )
        if kind == "bit-flip":
            return venue_verify(self.vk, {"badge": texts[kind]})
        if kind in ("transplant", "level-1"):
            return venue_verify(self.vk, {"status": texts[kind]})
        state = self.wallets[i]
        key = self.relay_key if kind == "relay" else state.key
        delay = 3 * self.ROTATION if kind == "stale-code" else self.GATE_DELAY
        return gate_round_trip(
            self.door, self.venue, self.vk, state.status, key, now, delay, self.gate_rng
        )

    def run(self, seconds: float, begin_op=None) -> Phase:
        rng = random.Random(f"{self.seed}/door")
        kinds = list(self.MIX)
        weights = [self.MIX[k][0] for k in kinds]
        phase = Phase()
        now = 0  # logical door clock, one second per visitor
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while time.perf_counter() < deadline:
            kind = rng.choices(kinds, weights)[0]
            pool = self.by_variant[self.MIX[kind][1]]
            i = pool[rng.randrange(len(pool))]
            if begin_op is not None:
                begin_op(phase.ops)
            t0 = time.perf_counter()
            try:
                outcome = self._op(kind, i, now)
            except Exception as exc:  # counted as a failure, never re-raised
                outcome = ("exception", type(exc).__name__)
            t1 = time.perf_counter()
            now += 1
            phase.ops += 1
            phase.latencies_ms.append((t1 - t0) * 1e3)
            phase.outcomes[(kind, outcome[0] if outcome[0] == "accept" else outcome[1])] += 1
            if outcome != self._expected(kind, i):
                phase.failures[kind] += 1
        phase.elapsed_s = time.perf_counter() - t_start
        return phase

    def check(self, phase: Phase) -> list:
        return []  # every operation is checked as it completes

    def secrets(self) -> set:
        out = set(_request_digests(self.issuer))
        for i, state in enumerate(self.wallets):
            out.update(_wallet_secrets(state))
            out.update(v.encode() for _, v in holder_pii(self.seed, i))
        return out


def _flip_signature_char(text: str, rng) -> str:
    """Change one base-32 character inside the trailing signature bytes, so
    the text still decodes but the signature no longer verifies."""
    pos = len(text) - 1 - rng.randrange(8, 90)
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"
    other = alphabet[(alphabet.index(text[pos]) + 1 + rng.randrange(31)) % 32]
    return text[:pos] + other + text[pos + 1 :]


# -- lifecycle: every role in one process --------------------------------------


class Lifecycle:
    """``run_scenario(canonical_script(1000), seed)`` back to back.

    An operation is one simulated user; the scenario runs its users in
    phases (all first doses, then all second doses, ...), so only the
    per-run mean time per user is observable: one latency sample per
    scenario run, not per user.
    """

    USERS = 1000
    WARM_UP_USERS = 100

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = seed
        self.script = scenario.canonical_script(self.USERS)
        # one small scenario first, so the timed runs start warm
        scenario.run_scenario(scenario.canonical_script(self.WARM_UP_USERS), seed)
        self.logs = []
        self.world = None
        freeze_scaffolding()

    def close(self) -> None:
        gc.unfreeze()

    def floor_status(self):
        """The issuer key and one level-2 status of the last scenario run."""
        states = self.world.wallets.values()
        return self.world.issuer_key, next(
            w.status for w in states if w.status is not None and int(w.status.payload.level) == 2
        )

    def run(self, seconds: float, begin_op=None) -> Phase:
        phase = Phase()
        t_start = time.perf_counter()
        deadline = t_start + seconds
        while time.perf_counter() < deadline:
            if begin_op is not None:
                begin_op(phase.ops)
            self.world = None  # so this run's collections do not scan the last world
            t0 = time.perf_counter()
            log, self.world = scenario.run_scenario(self.script, self.seed, return_world=True)
            t1 = time.perf_counter()
            self.logs.append(log.summary)
            phase.ops += self.USERS
            phase.latencies_ms.append((t1 - t0) * 1e3 / self.USERS)
            ok = self._summary_ok(log.summary)
            phase.outcomes[("scenario", "ok" if ok else "wrong-summary")] += 1
            if not ok:
                phase.failures["scenario"] += self.USERS
        phase.elapsed_s = time.perf_counter() - t_start
        return phase

    def _summary_ok(self, summary: dict) -> bool:
        return (
            summary.get("ok") is True
            and summary.get("violations") == []
            and summary.get("accepted") == len(self.script.actions)
            and summary.get("rejected") == 0
        )

    def check(self, phase: Phase) -> list:
        return [
            "a scenario summary reports violations or unexpected counts"
            for s in self.logs
            if not self._summary_ok(s)
        ]

    def secrets(self) -> set:
        out = set()
        for action in self.script.actions:
            out.update(v.encode() for _, v in action.get("pii", ()))
        if self.world is not None:
            out.update(_request_digests(self.world.signer))
            out.update(bytes.fromhex(cid) for cid in self.world.registry.snapshot())
            for state in self.world.wallets.values():
                out.update(_wallet_secrets(state))
        return out


WORKLOADS = {"issue": Issue, "venue": Venue, "lifecycle": Lifecycle}
