"""Command-line interface: one executable, one subcommand per role action.

Artifacts move between roles as QR text (CPN1:/BDG1:/STS1:/PSK1:/DSC1:
lines) on stdin/stdout or in files referenced as @path. Key material and
the registry log live at paths given by flags or the VAXCRED_KEYSTORE /
VAXCRED_REGISTRY environment variables; wallet and key files are
encrypted with the passphrase from VAXCRED_PASSPHRASE.

Exit codes: 0 success/accept, 2 typed protocol rejection, 1 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as _dt
import json
import os
import random
import signal
import sys
import threading

from . import canonical, durable, qr
from .config import ENV_KEYSTORE, ENV_PASSPHRASE, ENV_REGISTRY, load_config
from .coupons import Coupon, DistributorBatch, EligibilityRecord, issue_coupon_batch
from .credentials import Badge, DoseInfo, Passkey, Status, VaccinationLevel
from .crypto import KeyHandle, VerifyingKey, generate_keypair
from .errors import CanonicalError, ConfigError, VaxError
from .groupverify import gate_round_trip, make_venue, venue_start
from .health import (
    AggServer,
    AlertEntry,
    AggregateResult,
    SymptomReport,
    SymptomVector,
    add_dp_noise,
    combine_aggregates,
    load_feed,
    match_alerts,
    publish_alert_feed,
    save_feed,
    split_shares,
    upload_report,
)
from .merkle import DisclosureProof
from .registry import Registry
from .scenario import canonical_script, double_spend_script, run_scenario
from .service import SigningClient, serve
from .vaccination import BadgeIssuer, PharmacySession, check_admission
from .verification import Reject, verify_presentation
from .wallet import (
    DisclosureConsent,
    Presentation,
    PresentationKind,
    load_wallet,
    present,
    save_wallet,
    second_dose_due,
    store_credentials,
    wallet_init_app,
    wallet_init_paper,
)

# -- plumbing -----------------------------------------------------------------


def _read_arg(value: str) -> str:
    """Inline text, or @path to read it from a file."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return value


def _flag_or_env(args, flag: str, env: str) -> str:
    """``--flag`` if given, else the environment variable ``env``."""
    value = getattr(args, flag, None) or os.environ.get(env)
    if not value:
        raise ConfigError(f"no {flag}: set {env} or pass --{flag}")
    return value


def _passphrase(args) -> str:
    return _flag_or_env(args, "passphrase", ENV_PASSPHRASE)


def _key_path(args) -> str:
    return _flag_or_env(args, "key", ENV_KEYSTORE)


def _registry_path(args) -> str:
    return _flag_or_env(args, "registry", ENV_REGISTRY)


def _load_handle(args) -> KeyHandle:
    with open(_key_path(args), "rb") as fh:
        return KeyHandle.unseal(fh.read(), _passphrase(args))


def _load_pub(value: str) -> VerifyingKey:
    return VerifyingKey.from_hex(_read_arg(value))


def _pii_pairs(values) -> list:
    pairs = []
    for item in values or []:
        if "=" not in item:
            raise ConfigError(f"--pii expects label=value, got {item!r}")
        label, _, value = item.partition("=")
        pairs.append((label.strip(), value.strip()))
    if not pairs:
        raise ConfigError("at least one --pii label=value is required")
    return pairs


def _today(args) -> str:
    return getattr(args, "date", None) or _dt.date.today().isoformat()


def _dose_from_args(args, dose_number: int) -> DoseInfo:
    return DoseInfo(
        product=args.product,
        lot=args.lot,
        date=_today(args),
        dose_number=dose_number,
        site_id=args.site,
    )


def _port(value) -> int:
    """A TCP port number from an argument; ConfigError for anything else."""
    text = str(value)
    if not (text.isdecimal() and len(text) <= 5 and int(text) <= 65535):
        raise ConfigError(f"not a port number: {value!r}")
    return int(text)


def _signer(args, registry: Registry):
    if getattr(args, "service", None):
        host, _, port = args.service.partition(":")
        return SigningClient(host or "127.0.0.1", _port(port))
    return BadgeIssuer(_load_handle(args), registry)


# -- issuer -------------------------------------------------------------------


def cmd_issuer_keygen(args) -> int:
    """Create a new root key; an existing key file is refused, never
    replaced, as everything signed under it would stop verifying."""
    handle, vk = generate_keypair()
    path = _key_path(args)
    blob = handle.seal(_passphrase(args))
    try:
        durable.create(path, blob)
    except FileExistsError:
        raise ConfigError(f"{path} exists: refusing to replace an issuer key") from None
    durable.replace(path + ".pub", (vk.hex() + "\n").encode())
    print(f"key written to {path} (public half: {path}.pub)")
    return 0


def cmd_issuer_issue_batch(args) -> int:
    handle = _load_handle(args)
    config = load_config(getattr(args, "config", None))
    with Registry(_registry_path(args)) as registry:
        coupons = issue_coupon_batch(
            handle, args.n, args.zip, args.job,
            registry=registry, job_types=config.job_types,
            start_index=args.start_index,
        )
    lines = [qr.encode_qr(c) for c in coupons]
    if args.out:
        durable.replace(args.out, "".join(line + "\n" for line in lines).encode())
        print(f"{len(lines)} coupons written to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_issuer_serve(args) -> int:
    port = _port(args.port)
    handle = _load_handle(args)
    with Registry(_registry_path(args)) as registry:
        issuer = BadgeIssuer(handle, registry)
        server = serve(issuer, args.host, port)
        # SIGTERM, a service manager's stop, stops it as Ctrl-C does
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            print(f"signing service on {args.host}:{server.port}", flush=True)
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous)
            server.shutdown()
            server.server_close()
    return 0


# -- distributor --------------------------------------------------------------


def cmd_distributor_give(args) -> int:
    """``--state`` is a journal of released indices, one {"released": [...]}
    per line. Older releases wrote one such object with no newline, which the
    journal would cut as a torn line; it is refused (a newline converts it)."""
    with open(args.batch, "r", encoding="utf-8") as fh:
        coupons = [
            qr.decode_qr(line.strip(), Coupon)
            for line in fh
            if line.strip()
        ]
    record = EligibilityRecord(
        subject_ref=args.subject,
        zip_code=args.zip,
        job_type=args.job,
        approved=not args.rejected,
    )
    with contextlib.suppress(FileNotFoundError, ValueError, RecursionError), \
            open(args.state, "rb") as fh:
        data = fh.read()
        if not data.endswith(b"\n") and json.loads(data):
            raise ConfigError(f"{args.state} is distributor state in the old form: "
                              "add a newline at its end to convert it")
    with contextlib.closing(durable.Journal(args.state)) as journal, \
            journal.locked() as records:
        released = set()
        for r in records:
            (indices,) = canonical.fields(r, ("released",), f"line in {args.state}")
            if not (isinstance(indices, list) and all(type(i) is int for i in indices)):
                raise CanonicalError(f"{args.state}: released indices are integers")
            released.update(indices)
        coupon = DistributorBatch(coupons=coupons, released=released).distribute(record)
        journal.append([{"released": [coupon.payload.index]}])
    print(qr.export_coupon_url(coupon) if args.url else qr.encode_qr(coupon))
    return 0


# -- pharmacy -----------------------------------------------------------------


def _decode_coupon(args) -> Coupon:
    text = _read_arg(args.coupon)
    if text.lower().startswith(qr.COUPON_URL_SCHEME):
        return qr.import_coupon_url(text)
    return qr.decode_qr(text, Coupon)


def cmd_pharmacy_admit(args) -> int:
    coupon = _decode_coupon(args)
    issuer_pub = _load_pub(args.issuer_pub)
    with Registry(_registry_path(args)) as registry:
        try:
            check_admission(issuer_pub, registry, coupon)
        except VaxError as exc:
            print(f"reject: {exc.code}")
            return 2
    print("admit: ok")
    return 0


@contextlib.contextmanager
def _pharmacy_session(args):
    """A counter session on the local registry; a --service client's
    connection is closed when the session ends."""
    with Registry(_registry_path(args)) as registry:
        signer = _signer(args, registry)
        try:
            yield PharmacySession(
                vk_issuer=_load_pub(args.issuer_pub),
                registry=registry,
                signer=signer,
            )
        finally:
            if isinstance(signer, SigningClient):
                signer.close()


def cmd_pharmacy_vaccinate(args) -> int:
    coupon = _decode_coupon(args)
    with _pharmacy_session(args) as session:
        dose = _dose_from_args(args, 1)
        if args.variant == "paper":
            badge, status, passkey = session.issue_credentials_paper(
                coupon, dose, _pii_pairs(args.pii)
            )
            print(qr.encode_qr(badge))
            print(qr.encode_qr(status))
            print(qr.encode_qr(passkey))
        else:
            if not args.pii_root or not args.user_pub:
                raise ConfigError("app variant needs --pii-root and --user-pub")
            try:
                root = bytes.fromhex(args.pii_root)
            except ValueError:
                raise ConfigError(f"--pii-root is not hex: {args.pii_root!r}") from None
            badge, status = session.issue_credentials_app(
                coupon, dose, root,
                _load_pub(args.user_pub),
            )
            print(qr.encode_qr(badge))
            print(qr.encode_qr(status))
    return 0


def cmd_pharmacy_second_dose(args) -> int:
    badge = qr.decode_qr(_read_arg(args.badge), Badge)
    with _pharmacy_session(args) as session:
        user_key = _load_pub(args.user_pub) if args.user_pub else None
        new_badge, status = session.second_dose(
            badge, _dose_from_args(args, 2), user_key=user_key
        )
    print(qr.encode_qr(new_badge))
    print(qr.encode_qr(status))
    return 0


# -- user ---------------------------------------------------------------------


def cmd_user_init(args) -> int:
    coupon = _decode_coupon(args) if args.coupon else None
    if args.variant == "app":
        wallet = wallet_init_app(_pii_pairs(args.pii), coupon=coupon)
    else:
        wallet = wallet_init_paper(coupon=coupon)
    save_wallet(wallet, args.wallet, _passphrase(args))
    print(f"{args.variant} wallet written to {args.wallet}")
    if wallet.verifying_key is not None:
        print(f"holder key: {wallet.verifying_key.hex()}")
        print(f"tree root: {wallet.pii_tree.root.hex()}")
    return 0


def cmd_user_store(args) -> int:
    phrase = _passphrase(args)
    wallet = load_wallet(args.wallet, phrase)
    badge = qr.decode_qr(_read_arg(args.badge), Badge)
    status = qr.decode_qr(_read_arg(args.status), Status)
    passkey = qr.decode_qr(_read_arg(args.passkey), Passkey) if args.passkey else None
    store_credentials(wallet, badge, status, passkey)
    save_wallet(wallet, args.wallet, phrase)
    print(f"credentials stored (level {int(wallet.status.payload.level)})")
    return 0


def cmd_user_show(args) -> int:
    wallet = load_wallet(args.wallet, _passphrase(args))
    print(f"variant: {wallet.variant}")
    if wallet.coupon is not None:
        print(f"coupon: {qr.encode_qr(wallet.coupon)}")
    if wallet.badge is not None:
        doses = ", ".join(
            f"#{d.dose_number} {d.product} {d.date}"
            for d in wallet.badge.info.dose_history
        )
        print(f"doses: {doses}")
        print(f"badge: {qr.encode_qr(wallet.badge)}")
    if wallet.status is not None:
        print(f"level: {int(wallet.status.payload.level)}")
        print(f"status: {qr.encode_qr(wallet.status)}")
    if wallet.passkey is not None and args.secrets:
        print(f"passkey: {qr.encode_qr(wallet.passkey)}")
    return 0


def cmd_user_disclose(args) -> int:
    wallet = load_wallet(args.wallet, _passphrase(args))
    if args.passkey:
        presentation = present(
            wallet, PresentationKind.STATUS_WITH_PASSKEY,
            DisclosureConsent(granted=True),
        )
        print(qr.encode_qr(presentation.status))
        print(qr.encode_qr(presentation.passkey))
    else:
        labels = tuple(l.strip() for l in args.labels.split(",") if l.strip())
        presentation = present(
            wallet, PresentationKind.STATUS_WITH_DISCLOSURE,
            DisclosureConsent(granted=True, labels=labels),
        )
        print(qr.encode_qr(presentation.status))
        print(qr.encode_qr(presentation.proof))
    return 0


def cmd_user_due(args) -> int:
    wallet = load_wallet(args.wallet, _passphrase(args))
    interval = load_config(getattr(args, "config", None)).dose_interval_days
    due, days = second_dose_due(wallet, _today(args), interval)
    print(
        f"{'due' if due else 'not due'}: {days} day(s) since dose 1 "
        f"(interval {interval})"
    )
    return 0


# -- venue --------------------------------------------------------------------


def cmd_venue_verify(args) -> int:
    status = qr.decode_qr(_read_arg(args.status), Status) if args.status else None
    badge = qr.decode_qr(_read_arg(args.badge), Badge) if args.badge else None
    passkey = qr.decode_qr(_read_arg(args.passkey), Passkey) if args.passkey else None
    proof = qr.decode_qr(_read_arg(args.proof), DisclosureProof) if args.proof else None
    if passkey is not None:
        presentation = Presentation(
            kind=PresentationKind.STATUS_WITH_PASSKEY, status=status, passkey=passkey
        )
    elif proof is not None:
        presentation = Presentation(
            kind=PresentationKind.STATUS_WITH_DISCLOSURE, status=status, proof=proof
        )
    elif status is not None:
        presentation = Presentation(kind=PresentationKind.STATUS_ONLY, status=status)
    elif badge is not None:
        presentation = Presentation(kind=PresentationKind.BADGE_ONLY, badge=badge)
    else:
        raise ConfigError("nothing to verify: pass --status or --badge")
    required = tuple(
        l.strip() for l in (args.require_labels or "").split(",") if l.strip()
    )
    result = verify_presentation(_load_pub(args.issuer_pub), presentation, required)
    if isinstance(result, Reject):
        print(f"reject: {result.reason}")
        return 2
    if int(result.level) < args.required_level:
        print(f"reject: level {int(result.level)} below required {args.required_level}")
        return 2
    print(f"accept: level {int(result.level)}")
    for label, value in result.disclosed:
        print(f"  {label}: {value}")
    return 0


def cmd_venue_gate(args) -> int:
    """One contactless admission, all roles in-process (door demo)."""
    if args.required_level not in (0, 1, 2):
        raise ConfigError(f"--required-level is 0, 1 or 2, not {args.required_level}")
    issuer_handle = _load_handle(args)
    wallet = load_wallet(args.wallet, _passphrase(args))
    if wallet.variant != "app" or wallet.status is None:
        raise ConfigError("gate needs an app wallet holding a status")
    rng = random.Random(args.seed) if args.seed is not None else None
    venue = make_venue(issuer_handle, args.venue, rng)
    session = venue_start(
        venue, [issuer_handle.verifying_key],
        required_level=VaccinationLevel(args.required_level),
        rotation_period=args.rotation, rng=rng,
    )
    reason, code = gate_round_trip(
        session, wallet.status, wallet.key, args.at, args.delay,
        issuer_key=issuer_handle.verifying_key, rng=rng,
    )
    if reason != "ok":
        print(f"reject: {reason}")
        return 2
    print(f"admit: code {code}")
    return 0


# -- health -------------------------------------------------------------------


def _ints(text: str) -> tuple:
    """Comma-separated integers; CanonicalError for any other item."""
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise CanonicalError(f"not comma-separated integers: {text!r}") from None


def _vector_from_text(text: str) -> SymptomVector:
    return SymptomVector(_ints(text))


def cmd_health_report(args) -> int:
    vector = _vector_from_text(args.vector)
    coupon = _decode_coupon(args) if args.coupon else None
    report = SymptomReport(vector=vector, timestamp=_today(args), coupon=coupon)
    with Registry(_registry_path(args)) as registry:
        record = upload_report(registry, report)
    if record is not None:
        with contextlib.closing(durable.Journal(args.store)) as store, store.locked():
            store.append([record])
        print("accepted")
        return 0
    print("rejected")
    return 2


def cmd_health_split(args) -> int:
    vector = _vector_from_text(args.vector)
    rng = random.Random(args.seed) if args.seed is not None else None
    bundle = split_shares(vector, args.p, rng)
    print(json.dumps({"a": list(bundle.share_a), "b": list(bundle.share_b)}))
    return 0


def cmd_health_aggregate(args) -> int:
    with open(args.shares, "rb") as fh:
        rows = list(durable.json_lines(fh))
    if not rows:
        print(json.dumps({"n": 0, "totals": []}))
        return 0
    pairs = [canonical.fields(row, ("a", "b"), f"share line in {args.shares}") for row in rows]
    if not all(isinstance(a, list) and isinstance(b, list) for a, b in pairs):
        raise CanonicalError(f"{args.shares}: each share is a list")
    dim = len(pairs[0][0])
    server_a, server_b = AggServer(dim, args.p), AggServer(dim, args.p)
    for a, b in pairs:
        server_a.accumulate(a)
        server_b.accumulate(b)
    agg = combine_aggregates(server_a, server_b)
    print(json.dumps({"n": agg.n_reports, "totals": list(agg.totals)}))
    return 0


def cmd_health_noise(args) -> int:
    agg = AggregateResult(totals=_ints(args.totals), n_reports=args.n)
    rng = random.Random(args.seed) if args.seed is not None else None
    noisy = add_dp_noise(agg, args.epsilon, args.sensitivity, rng)
    print(json.dumps({"epsilon": noisy.epsilon, "totals": list(noisy.totals)}))
    return 0


def cmd_health_feed(args) -> int:
    entries = []
    for item in args.entry or []:
        scope, _, rest = item.partition(":")
        key, _, message = rest.partition(":")
        entries.append(AlertEntry(scope=scope, key=key, message=message or ""))
    feed = publish_alert_feed(_today(args), entries)
    save_feed(feed, args.out)
    print(f"{len(entries)} alert(s) written to {args.out}")
    return 0


def cmd_health_match(args) -> int:
    feed = load_feed(args.feed)
    doses = []
    if args.product or args.lot or args.site:
        doses.append(
            DoseInfo(
                product=args.product or "-", lot=args.lot or "-",
                date=_today(args), dose_number=1, site_id=args.site or "-",
            )
        )
    conditions = [c.strip() for c in (args.conditions or "").split(",") if c.strip()]
    result = match_alerts(feed, doses, conditions)
    if not result.any_match:
        print("no alerts match")
        return 0
    for e in result.matched:
        print(f"{e.scope}:{e.key}: {e.message}")
    return 0


# -- scenarios ----------------------------------------------------------------


def cmd_sim_run(args) -> int:
    if args.scenario == "canonical":
        script = canonical_script(n_users=args.users)
    elif args.scenario == "double-spend":
        script = double_spend_script()
    else:
        raise ConfigError(f"unknown scenario {args.scenario!r}")
    log = run_scenario(script, args.seed)
    text = log.to_text()
    if args.out:
        durable.replace(args.out, text.encode())
        print(f"transcript written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if log.summary.get("ok") else 2


# -- parser -------------------------------------------------------------------


def _add_common_signing(p):
    p.add_argument("--key", help="sealed key file (or VAXCRED_KEYSTORE)")
    p.add_argument("--passphrase", help="key passphrase (or VAXCRED_PASSPHRASE)")


def _add_dose_flags(p):
    p.add_argument("--product", required=True)
    p.add_argument("--lot", required=True)
    p.add_argument("--site", required=True)
    p.add_argument("--date", help="dose date YYYY-MM-DD (default: today)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaxcred",
        description="privacy-preserving vaccination credentials",
    )
    roles = parser.add_subparsers(dest="role", required=True)

    # issuer
    issuer = roles.add_parser("issuer").add_subparsers(dest="cmd", required=True)
    p = issuer.add_parser("keygen")
    _add_common_signing(p)
    p.set_defaults(fn=cmd_issuer_keygen)
    p = issuer.add_parser("issue-batch")
    _add_common_signing(p)
    p.add_argument("--registry", help="registry log path (or VAXCRED_REGISTRY)")
    p.add_argument("--config", help="config file (or VAXCRED_CONFIG)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--zip", required=True)
    p.add_argument("--job", required=True)
    p.add_argument("--start-index", type=int, default=0)
    p.add_argument("--out", help="write CPN1 lines here instead of stdout")
    p.set_defaults(fn=cmd_issuer_issue_batch)
    p = issuer.add_parser("serve", description="Run the signing service.")
    _add_common_signing(p)
    p.add_argument("--registry")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7250)
    p.set_defaults(fn=cmd_issuer_serve)

    # distributor
    dist = roles.add_parser("distributor").add_subparsers(dest="cmd", required=True)
    p = dist.add_parser("give")
    p.add_argument("--batch", required=True, help="file of CPN1 lines")
    p.add_argument("--state", required=True, help="released-index journal (JSON lines)")
    p.add_argument("--subject", required=True)
    p.add_argument("--zip", required=True)
    p.add_argument("--job", required=True)
    p.add_argument("--rejected", action="store_true",
                   help="mark the eligibility record as not approved")
    p.add_argument("--url", action="store_true", help="print a link, not QR text")
    p.set_defaults(fn=cmd_distributor_give)

    # pharmacy
    pharm = roles.add_parser("pharmacy").add_subparsers(dest="cmd", required=True)
    p = pharm.add_parser("admit")
    p.add_argument("--coupon", required=True, help="CPN1 text, link, or @file")
    p.add_argument("--issuer-pub", required=True, help="issuer public key (hex or @file)")
    p.add_argument("--registry")
    p.set_defaults(fn=cmd_pharmacy_admit)
    p = pharm.add_parser("vaccinate")
    p.add_argument("--coupon", required=True)
    p.add_argument("--issuer-pub", required=True)
    p.add_argument("--registry")
    p.add_argument("--variant", choices=("paper", "app"), required=True)
    p.add_argument("--pii", action="append", help="label=value (paper; repeatable)")
    p.add_argument("--pii-root", help="hash-tree root hex (app)")
    p.add_argument("--user-pub", help="holder public key hex (app)")
    p.add_argument("--service", help="remote signer host:port (default: local --key)")
    _add_common_signing(p)
    _add_dose_flags(p)
    p.set_defaults(fn=cmd_pharmacy_vaccinate)
    p = pharm.add_parser("second-dose")
    p.add_argument("--badge", required=True, help="BDG1 text or @file")
    p.add_argument("--issuer-pub", required=True)
    p.add_argument("--registry")
    p.add_argument("--user-pub", help="holder public key hex (app wallets)")
    p.add_argument("--service")
    _add_common_signing(p)
    _add_dose_flags(p)
    p.set_defaults(fn=cmd_pharmacy_second_dose)

    # user
    user = roles.add_parser("user").add_subparsers(dest="cmd", required=True)
    p = user.add_parser("init")
    p.add_argument("--wallet", required=True)
    p.add_argument("--variant", choices=("paper", "app"), required=True)
    p.add_argument("--pii", action="append", help="label=value (app; repeatable)")
    p.add_argument("--coupon", help="CPN1 text, link, or @file")
    p.add_argument("--passphrase")
    p.set_defaults(fn=cmd_user_init)
    p = user.add_parser("store")
    p.add_argument("--wallet", required=True)
    p.add_argument("--badge", required=True)
    p.add_argument("--status", required=True)
    p.add_argument("--passkey")
    p.add_argument("--passphrase")
    p.set_defaults(fn=cmd_user_store)
    p = user.add_parser("show")
    p.add_argument("--wallet", required=True)
    p.add_argument("--secrets", action="store_true", help="also print the passkey")
    p.add_argument("--passphrase")
    p.set_defaults(fn=cmd_user_show)
    p = user.add_parser("disclose")
    p.add_argument("--wallet", required=True)
    p.add_argument("--labels", default="", help="comma-separated field labels (app)")
    p.add_argument("--passkey", action="store_true", help="show the passkey (paper)")
    p.add_argument("--passphrase")
    p.set_defaults(fn=cmd_user_disclose)
    p = user.add_parser("due")
    p.add_argument("--wallet", required=True)
    p.add_argument("--date", help="as-of date (default: today)")
    p.add_argument("--config")
    p.add_argument("--passphrase")
    p.set_defaults(fn=cmd_user_due)

    # venue
    venue = roles.add_parser("venue").add_subparsers(dest="cmd", required=True)
    p = venue.add_parser("verify")
    p.add_argument("--issuer-pub", required=True)
    p.add_argument("--status")
    p.add_argument("--badge")
    p.add_argument("--passkey")
    p.add_argument("--proof")
    p.add_argument("--require-labels", help="labels a disclosure must prove")
    p.add_argument("--required-level", type=int, default=0)
    p.set_defaults(fn=cmd_venue_verify)
    p = venue.add_parser("gate")
    p.add_argument("--wallet", required=True, help="holder wallet (app variant)")
    p.add_argument("--venue", default="V-MAIN")
    p.add_argument("--required-level", type=int, default=2)
    p.add_argument("--rotation", type=int, default=60)
    p.add_argument("--at", type=int, default=0, help="logical time in seconds")
    p.add_argument("--delay", type=int, default=5,
                   help="seconds between challenge and guard check")
    p.add_argument("--seed", type=int)
    _add_common_signing(p)
    p.set_defaults(fn=cmd_venue_gate)

    # health
    health = roles.add_parser("health").add_subparsers(dest="cmd", required=True)
    p = health.add_parser("report")
    p.add_argument("--vector", required=True, help="comma-separated counts")
    p.add_argument("--store", required=True, help="raw report store (JSON lines)")
    p.add_argument("--coupon", help="bind the report to a redeemed coupon")
    p.add_argument("--registry")
    p.add_argument("--date")
    p.set_defaults(fn=cmd_health_report)
    p = health.add_parser("split")
    p.add_argument("--vector", required=True)
    p.add_argument("--p", type=int, default=2**31 - 1)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_health_split)
    p = health.add_parser("aggregate")
    p.add_argument("--shares", required=True, help='JSON lines {"a": [...], "b": [...]}')
    p.add_argument("--p", type=int, default=2**31 - 1)
    p.set_defaults(fn=cmd_health_aggregate)
    p = health.add_parser("noise")
    p.add_argument("--totals", required=True, help="comma-separated integers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_health_noise)
    p = health.add_parser("feed")
    p.add_argument("--out", required=True)
    p.add_argument("--date")
    p.add_argument("--entry", action="append",
                   help="scope:key:message (scope: product|lot|site|condition)")
    p.set_defaults(fn=cmd_health_feed)
    p = health.add_parser("match")
    p.add_argument("--feed", required=True)
    p.add_argument("--product")
    p.add_argument("--lot")
    p.add_argument("--site")
    p.add_argument("--conditions", help="comma-separated condition codes")
    p.add_argument("--date")
    p.set_defaults(fn=cmd_health_match)

    # simulation
    sim = roles.add_parser("sim").add_subparsers(dest="cmd", required=True)
    p = sim.add_parser("run")
    p.add_argument("--scenario", choices=("canonical", "double-spend"),
                   default="canonical")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--out", help="write the transcript log here")
    p.set_defaults(fn=cmd_sim_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VaxError as exc:
        print(f"error ({exc.code}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
