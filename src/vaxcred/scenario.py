"""Scripted end-to-end runs with a logical clock and seeded randomness.

A scenario is an ordered list of role actions, each stamped with a
logical time in seconds (dates derive from it; nothing reads the wall
clock). All randomness — keys, salts, ephemeral channel keys, shares,
challenge draws — comes from one seeded generator, so a given (script,
seed) pair produces a byte-identical transcript log every run.

Action failures are logged as rejections and the run continues; only a
malformed script itself raises.
"""

from __future__ import annotations

import datetime as _dt
import json
import random
from dataclasses import dataclass, field

from .config import DOSE_INTERVAL_DAYS
from .coupons import (
    DistributorBatch,
    EligibilityRecord,
    issue_coupon_batch,
)
from .credentials import DoseInfo, VaccinationLevel
from .crypto import generate_keypair
from .errors import VaxError
from .groupverify import gate_round_trip, make_venue, venue_start
from .health import (
    AggServer,
    SymptomReport,
    SymptomVector,
    add_dp_noise,
    combine_aggregates,
    split_shares,
    upload_report,
)
from .registry import Registry
from .vaccination import BadgeIssuer, PharmacySession
from .verification import Verdict, verify_presentation
from .wallet import (
    DisclosureConsent,
    PresentationKind,
    present,
    store_credentials,
    wallet_init_app,
    wallet_init_paper,
)

_EPOCH = _dt.date(2021, 1, 4)
_SECONDS_PER_DAY = 86400


def _date_at(at: int) -> str:
    return (_EPOCH + _dt.timedelta(days=at // _SECONDS_PER_DAY)).isoformat()


@dataclass(frozen=True)
class ScenarioScript:
    name: str
    actions: tuple  # of dicts: {"at": int, "action": str, ...params}

    def __post_init__(self):
        last = -1
        for action in self.actions:
            if "at" not in action or "action" not in action:
                raise VaxError("script actions need 'at' and 'action'")
            if action["at"] < last:
                raise VaxError("script actions must be time-ordered")
            last = action["at"]


@dataclass
class TranscriptLog:
    events: list = field(default_factory=list)

    def append(self, at: int, actor: str, event: str, ok: bool, **details) -> None:
        entry = {"at": at, "actor": actor, "event": event, "ok": ok}
        entry.update(details)
        self.events.append(entry)

    def to_text(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.events)

    @property
    def rejections(self) -> list:
        return [e for e in self.events if not e["ok"]]

    @property
    def summary(self) -> dict:
        return self.events[-1] if self.events else {}


class _World:
    """Mutable state threaded through one scenario run."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.log = TranscriptLog()
        self.issuer_handle, self.issuer_key = generate_keypair(self.rng)
        self.registry = Registry()
        self.signer = BadgeIssuer(self.issuer_handle, self.registry)
        self.batches = {}  # (zip, job) -> DistributorBatch
        self.wallets = {}  # user id -> WalletState
        self.pending_coupons = {}  # coupons handed out before wallet init
        self.servers = None
        self._plain_sum = None
        self.violations = []

    def pharmacy(self, at: int) -> PharmacySession:
        return PharmacySession(
            vk_issuer=self.issuer_key,
            registry=self.registry,
            signer=self.signer,
            today=_date_at(at),
            rng=self.rng,
        )

    # -- actions ----------------------------------------------------------

    def act_issue_batch(self, at, action):
        n = action["n"]
        zip_code, job = action["zip"], action["job"]
        coupons = issue_coupon_batch(
            self.issuer_handle, n, zip_code, job, registry=self.registry
        )
        self.batches[(zip_code, job)] = DistributorBatch(coupons=coupons)
        self.log.append(at, "issuer", "issue-batch", True, n=n, zip=zip_code, job=job)

    def act_distribute(self, at, action):
        user = action["user"]
        zip_code, job = action["zip"], action["job"]
        record = EligibilityRecord(
            subject_ref=user, zip_code=zip_code, job_type=job,
            approved=action.get("approved", True),
        )
        coupon = self.batches[(zip_code, job)].distribute(record)
        wallet = self.wallets.get(user)
        if wallet is not None:
            wallet.coupon = coupon
        else:
            self.pending_coupons[user] = coupon
        self.log.append(
            at, "distributor", "distribute", True, user=user,
            index=coupon.payload.index,
        )

    def act_init_wallet(self, at, action):
        user = action["user"]
        variant = action["variant"]
        coupon = self.pending_coupons.pop(user, None)
        if variant == "app":
            pii = [[l, v] for l, v in action["pii"]]
            wallet = wallet_init_app(pii, coupon=coupon, rng=self.rng)
        else:
            wallet = wallet_init_paper(coupon=coupon)
        self.wallets[user] = wallet
        self.log.append(at, user, "init-wallet", True, variant=variant)

    def act_dose(self, at, action, dose_number):
        user = action["user"]
        wallet = self.wallets[user]
        session = self.pharmacy(at)
        dose = DoseInfo(
            product=action.get("product", "VX-ALPHA"),
            lot=action.get("lot", f"L-{dose_number}{at // _SECONDS_PER_DAY:03d}"),
            date=_date_at(at),
            dose_number=dose_number,
            site_id=action.get("site", "S-01"),
        )
        if dose_number == 1:
            if wallet.variant == "paper":
                pii = action.get("pii", [["name", user], ["dob", "1980-01-01"]])
                badge, status, passkey = session.issue_credentials_paper(
                    wallet.coupon, dose, pii
                )
                store_credentials(wallet, badge, status, passkey)
            else:
                badge, status = session.issue_credentials_app(
                    wallet.coupon, dose, wallet.pii_tree.root,
                    wallet.verifying_key,
                )
                store_credentials(wallet, badge, status)
        else:
            user_key = wallet.verifying_key if wallet.variant == "app" else None
            badge, status = session.second_dose(wallet.badge, dose, user_key=user_key)
            store_credentials(wallet, badge, status)
        self.log.append(
            at, user, f"dose{dose_number}", True,
            level=int(wallet.status.payload.level), date=dose.date,
        )

    def act_verify(self, at, action):
        user = action["user"]
        wallet = self.wallets[user]
        kind = PresentationKind(action.get("kind", "status-only"))
        consent = None
        if kind is PresentationKind.STATUS_WITH_PASSKEY:
            consent = DisclosureConsent(granted=True)
        elif kind is PresentationKind.STATUS_WITH_DISCLOSURE:
            consent = DisclosureConsent(
                granted=True, labels=tuple(action.get("labels", ("name",)))
            )
        presentation = present(wallet, kind, consent)
        result = verify_presentation(self.issuer_key, presentation)
        ok = isinstance(result, Verdict)
        details = {"kind": kind.value}
        if ok:
            details["level"] = int(result.level)
        else:
            details["reason"] = result.reason
        self.log.append(at, "venue", "verify", ok, user=user, **details)
        if ok and result.level is not wallet.badge.info.level:
            self.violations.append(f"verify level mismatch for {user}")

    def act_group_verify(self, at, action):
        user = action["user"]
        wallet = self.wallets[user]
        venue = make_venue(self.issuer_handle, action.get("venue", "V-MAIN"), self.rng)
        session = venue_start(
            venue, [self.issuer_key],
            required_level=VaccinationLevel(action.get("required", 2)),
            rotation_period=action.get("rotation", 60), rng=self.rng,
        )
        try:
            reason, _ = gate_round_trip(
                session, wallet.status, wallet.key, at, action.get("delay", 5),
                issuer_key=self.issuer_key, rng=self.rng,
            )
        except VaxError as exc:
            reason = exc.code
        self.log.append(at, "venue", "group-verify", reason == "ok", user=user, reason=reason)

    def act_report(self, at, action):
        user = action["user"]
        wallet = self.wallets[user]
        dim = action.get("dim", 8)
        counts = tuple(self.rng.randrange(0, 4) for _ in range(dim))
        vector = SymptomVector(counts)
        coupon = None if action.get("anonymous", False) else wallet.coupon
        report = SymptomReport(vector=vector, timestamp=_date_at(at), coupon=coupon)
        accepted = upload_report(self.registry, report) is not None
        if accepted:
            if self.servers is None:
                self.servers = (AggServer(dim), AggServer(dim))
                self._plain_sum = [0] * dim
            bundle = split_shares(vector, rng=self.rng)
            self.servers[0].accumulate(bundle.share_a)
            self.servers[1].accumulate(bundle.share_b)
            self._plain_sum = [a + b for a, b in zip(self._plain_sum, counts)]
        self.log.append(
            at, user, "report", accepted, anonymous=coupon is None,
        )

    def act_aggregate(self, at, action):
        if self.servers is None:
            self.log.append(at, "health", "aggregate", False, reason="no-reports")
            return
        agg = combine_aggregates(self.servers[0], self.servers[1])
        expected = tuple(self._plain_sum)
        if agg.totals != expected:
            self.violations.append("aggregate differs from plaintext sum")
        details = {"n": agg.n_reports, "totals": list(agg.totals)}
        if "epsilon" in action:
            agg = add_dp_noise(agg, action["epsilon"], rng=self.rng)
            details["noised"] = list(agg.totals)
        self.log.append(at, "health", "aggregate", True, **details)

    def act_double_spend(self, at, action):
        user = action["user"]
        wallet = self.wallets[user]
        session = self.pharmacy(at)
        dose = DoseInfo(
            product="VX-ALPHA", lot="L-DSP", date=_date_at(at),
            dose_number=1, site_id="S-99",
        )
        try:
            session.issue_credentials_paper(
                wallet.coupon, dose, [["name", "impostor"]]
            )
            self.log.append(at, "pharmacy", "double-spend", True, user=user)
            self.violations.append(f"double spend succeeded for {user}")
        except VaxError as exc:
            self.log.append(
                at, "pharmacy", "double-spend", False, user=user, reason=exc.code,
            )


_ACTIONS = {
    "issue-batch": _World.act_issue_batch,
    "distribute": _World.act_distribute,
    "init-wallet": _World.act_init_wallet,
    "dose1": lambda w, at, a: w.act_dose(at, a, 1),
    "dose2": lambda w, at, a: w.act_dose(at, a, 2),
    "verify": _World.act_verify,
    "group-verify": _World.act_group_verify,
    "report": _World.act_report,
    "aggregate": _World.act_aggregate,
    "double-spend": _World.act_double_spend,
}


def run_scenario(script: ScenarioScript, seed: int, *, return_world: bool = False):
    """Replay `script` deterministically. Returns the transcript log, or
    (log, world) with `return_world` for post-run audits (privacy scans,
    registry inspection)."""
    world = _World(seed)
    for action in script.actions:
        handler = _ACTIONS.get(action["action"])
        if handler is None:
            raise VaxError(f"unknown scenario action {action['action']!r}")
        at = action["at"]
        try:
            handler(world, at, action)
        except VaxError as exc:
            world.log.append(
                at, action.get("user", action["action"]), action["action"],
                False, reason=exc.code,
            )
    accepted = sum(1 for e in world.log.events if e["ok"])
    rejected = len(world.log.events) - accepted
    world.log.append(
        script.actions[-1]["at"] if script.actions else 0,
        "scenario", "summary", not world.violations,
        accepted=accepted, rejected=rejected, name=script.name,
        violations=sorted(world.violations),
    )
    if return_world:
        return world.log, world
    return world.log


def canonical_script(n_users: int = 100, zip_code: str = "02139",
                     job: str = "healthcare") -> ScenarioScript:
    """The full happy path: issue, distribute, both doses for a mix of
    paper and app wallets, venue checks, gate checks, and aggregation."""
    actions = [
        {"at": 0, "action": "issue-batch", "n": n_users, "zip": zip_code, "job": job}
    ]
    day = _SECONDS_PER_DAY
    pii_of = {}
    for i in range(n_users):
        user = f"user{i:03d}"
        variant = "app" if i % 2 else "paper"
        # personal field values deliberately never collide with the public
        # coupon fields (zip carries a +4 suffix), so a byte-level privacy
        # scan of issuer traffic cannot produce false hits
        pii_of[user] = (
            ("dob", f"19{50 + i % 40}-03-0{1 + i % 9}"),
            ("name", f"Holder {i:03d}"),
            ("zip", f"{zip_code}-{1700 + i:04d}"),
        )
        actions.append(
            {"at": day, "action": "init-wallet", "user": user, "variant": variant,
             "pii": pii_of[user]}
        )
        actions.append(
            {"at": day, "action": "distribute", "user": user,
             "zip": zip_code, "job": job}
        )
    for i in range(n_users):
        user = f"user{i:03d}"
        actions.append(
            {"at": 2 * day, "action": "dose1", "user": user,
             "pii": pii_of[user]}
        )
    dose2_at = (2 + DOSE_INTERVAL_DAYS) * day
    for i in range(n_users):
        actions.append(
            {"at": dose2_at, "action": "dose2", "user": f"user{i:03d}"}
        )
    verify_at = dose2_at + day
    for i in range(n_users):
        user = f"user{i:03d}"
        kind = "status+disclosure" if i % 2 else "status+passkey"
        actions.append(
            {"at": verify_at, "action": "verify", "user": user, "kind": kind,
             "labels": ("name",)}
        )
        if i % 2:
            actions.append(
                {"at": verify_at, "action": "group-verify", "user": user}
            )
        actions.append(
            {"at": verify_at, "action": "report", "user": user,
             "anonymous": i % 5 == 0}
        )
    actions.append({"at": verify_at, "action": "aggregate", "epsilon": 1.0})
    return ScenarioScript(name=f"canonical-{n_users}", actions=tuple(actions))


def double_spend_script() -> ScenarioScript:
    day = _SECONDS_PER_DAY
    actions = (
        {"at": 0, "action": "issue-batch", "n": 2, "zip": "02139", "job": "retail"},
        {"at": day, "action": "init-wallet", "user": "alice", "variant": "paper"},
        {"at": day, "action": "distribute", "user": "alice", "zip": "02139",
         "job": "retail"},
        {"at": 2 * day, "action": "dose1", "user": "alice"},
        {"at": 3 * day, "action": "double-spend", "user": "alice"},
    )
    return ScenarioScript(name="double-spend", actions=actions)
