"""One table of every entry that reads bytes, text or files from outside
the process, fed mutated golden vectors and generated input.

Each entry must return or raise a ``VaxError``: any other exception fails
the test, and ``cli.main`` must never print ``internal error:``. Inputs
are byte mutations of real artifacts and files, and structural mutations
of their decoded values (a key dropped or added, a value replaced by a
generated one). Hypothesis runs derandomized (a fixed seed), with no
example database and a deadline per example, so every run feeds the same
inputs and the table takes a few seconds. Sealed files use one SHA-256 in
place of the scrypt passphrase KDF, so that a sealed example costs
microseconds, and ``cli.main`` reuses one argument parser; the readers
under test run unchanged.
"""

import base64
import contextlib
import datetime
import functools
import hashlib
import io
import json
import os
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcred import canonical, cli, crypto, wallet
from vaxcred.config import parse_config
from vaxcred.coupons import Coupon, CouponPayload, issue_coupon_batch
from vaxcred.credentials import (
    Badge,
    BadgeInfo,
    Commitment,
    DoseInfo,
    Passkey,
    Status,
    StatusPayload,
    binding_from_wire,
    status_for,
)
from vaxcred.crypto import KeyHandle, PkCiphertext, VerifyingKey, encrypt_to, generate_keypair
from vaxcred.errors import VaxError
from vaxcred.groupverify import (
    TrustMode,
    VenueAdvertisement,
    accept_channel,
    make_venue,
    open_channel,
    receive_challenge,
    submit_status,
    venue_start,
)
from vaxcred.health import AlertEntry, SymptomVector, publish_alert_feed, save_feed, split_shares
from vaxcred.merkle import DisclosureProof, build_pii_tree, prove_disclosure
from vaxcred.qr import decode_qr, encode_qr, export_coupon_url, import_coupon_url
from vaxcred.registry import Registry
from vaxcred.service import SigningClient, encode_request, handle_request_bytes
from vaxcred.vaccination import BadgeIssuer, PharmacySession
from vaxcred.wallet import (
    Presentation,
    PresentationKind,
    load_wallet,
    store_credentials,
    wallet_init_app,
    wallet_init_paper,
)

PASS = "table passphrase"
PII = (("dob", "1970-01-01"), ("name", "Ada Example"))
GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_wire.json").read_text())
TABLE = settings(derandomize=True, database=None, deadline=datetime.timedelta(seconds=2),
                 max_examples=25)


# -- the world the seeds come from ----------------------------------------------


def _dose(number: int) -> DoseInfo:
    date = "2021-03-01" if number == 1 else "2021-03-22"
    return DoseInfo(product="VX", lot=f"L-{number}", date=date, dose_number=number, site_id="S-1")


class _World:
    """One issuer, a registry log, two holders, a venue, and a file of
    each kind the CLI reads, all from one seeded generator."""

    def __init__(self, tmp: pathlib.Path):
        rng = random.Random(0x7AB1E)
        self.tmp = tmp
        self.handle, self.vk = generate_keypair(rng)
        self.holder, self.holder_vk = generate_keypair(rng)
        path = {name: str(tmp / name) for name in (
            "key", "registry", "batch", "state", "store", "shares", "feed", "paper_wallet",
            "app_wallet", "new_wallet", "out", "give")}
        self.path = path
        pathlib.Path(path["key"]).write_bytes(self.handle.seal(PASS))
        with Registry(path["registry"]) as registry:
            coupons = issue_coupon_batch(self.handle, 12, "02139", "healthcare", registry=registry)
            session = PharmacySession(vk_issuer=self.vk, registry=registry,
                                      signer=BadgeIssuer(self.handle, registry), rng=rng)
            badge, status, passkey = session.issue_credentials_paper(coupons[0], _dose(1), PII)
            badge2, status2 = session.second_dose(badge, _dose(2))
            tree = build_pii_tree(PII, rng=rng)
            app_badge, app_status = session.issue_credentials_app(
                coupons[1], _dose(1), tree.root, self.holder_vk)
        self.log = pathlib.Path(path["registry"]).read_bytes()
        self.coupons = coupons
        self.status, self.app_status, self.badge = status, app_status, badge
        proof = prove_disclosure(tree, ["name"])

        paper = wallet_init_paper(coupon=coupons[0])
        store_credentials(paper, badge2, status2, passkey)
        app = wallet_init_app(PII, coupon=coupons[1], rng=rng)
        wallet.save_wallet(paper, path["paper_wallet"], PASS)
        wallet.save_wallet(app, path["app_wallet"], PASS)
        self.wallet_bodies = [canonical.encode(wallet._wallet_wire(w, PASS)) for w in (paper, app)]
        self.key_blob = self.handle.seal(PASS)

        info = BadgeInfo(dose_history=(_dose(1),), coupon=coupons[2],
                         binding=Commitment(bytes(range(32))))
        self.request_parts = (info, status_for(info))
        self.issuer = BadgeIssuer(self.handle, Registry())
        self.issuer._registry.register_many([(c.coupon_id, c.sig_digest) for c in coupons])
        request = encode_request(*self.request_parts)
        self.requests = [request, bytes.fromhex(GOLDEN["request_frame"])]
        self.responses = [handle_request_bytes(self.issuer, request),
                          bytes.fromhex(GOLDEN["response_frame"]),
                          canonical.encode({"error": "already-used", "ok": False})]

        self.venue = make_venue(self.handle, "V-TABLE", rng)
        self.rng = rng
        self.hellos = [self._channel()[1]]
        body = canonical.encode({"code": "ABCDEF", "window": 0})
        self.challenge_bodies = [body]
        self.challenge_frames = [self._challenge(body)]

        wires = {name: bytes.fromhex(GOLDEN[name]) for name in (
            "coupon", "badge_paper_dose2", "badge_app_dose1", "status_paper_dose1",
            "status_app_dose2", "passkey", "disclosure_proof", "advertisement")}
        badge_wire = canonical.decode(wires["badge_app_dose1"])
        status_wire = canonical.decode(wires["status_app_dose2"])
        self.wire = {  # seeds for each reader in WIRE_READERS
            "Coupon": [wires["coupon"], coupons[3].to_bytes()],
            "CouponPayload": [bytes(canonical.decode(wires["coupon"])["payload"].raw)],
            "Badge": [wires["badge_paper_dose2"], wires["badge_app_dose1"]],
            "BadgeInfo": [bytes(badge_wire["info"].raw)],
            "DoseInfo": [bytes(badge_wire["info"]["doses"][0].raw)],
            "Status": [wires["status_paper_dose1"], wires["status_app_dose2"]],
            "StatusPayload": [bytes(status_wire["payload"].raw)],
            "Passkey": [wires["passkey"]],
            "DisclosureProof": [wires["disclosure_proof"], proof.to_bytes()],
            "VenueAdvertisement": [wires["advertisement"]],
            "VerifyingKey": [bytes(canonical.decode(wires["advertisement"])["channel"].raw)],
            "PkCiphertext": [canonical.encode(encrypt_to(self.vk, b"box", rng).to_wire())],
            "Presentation": [
                Presentation(kind=PresentationKind.STATUS_WITH_PASSKEY, status=status,
                             passkey=passkey).to_bytes(),
                Presentation(kind=PresentationKind.STATUS_WITH_DISCLOSURE,
                             status=app_status, proof=proof).to_bytes(),
            ],
            "binding": [bytes(badge_wire["info"]["binding"].raw),
                        bytes(status_wire["payload"]["binding"].raw)],
        }
        self.qr = [encode_qr(x) for x in (coupons[4], badge, app_status, passkey, proof)]
        self.urls = [export_coupon_url(coupons[4]), GOLDEN["coupon_url"]]
        self.config = [b"job_types = healthcare, transit\ndose_interval_days = 21\n# note\n"]

        shares = [split_shares(SymptomVector((i, 1, 2)), rng=rng) for i in range(2)]
        feed = publish_alert_feed("2021-03-05", [AlertEntry("lot", "L-1", "recall"),
                                                 AlertEntry("condition", "c-1", "call")])
        save_feed(feed, path["feed"])
        pathlib.Path(path["batch"]).write_text("".join(encode_qr(c) + "\n" for c in coupons[5:9]))
        self.files = {
            "state": [b'{"released": [5]}\n{"released": [6, 7]}\n', b'{"released": [5]}'],
            "store": [b'{"timestamp": "2021-03-01", "vector": [1, 2]}\n'
                      b'{"coupon_id": "00", "timestamp": "2021-03-02", "vector": [3]}\n'],
            "shares": ["".join(json.dumps({"a": list(s.share_a), "b": list(s.share_b)}) + "\n"
                               for s in shares).encode()],
            "feed": [pathlib.Path(path["feed"]).read_bytes()],
        }
        self.strategies = {}

    def _channel(self):
        return open_channel(self.venue.advertisement, TrustMode.ISSUER_SIGNED,
                            issuer_key=self.vk, rng=self.rng)

    def _challenge(self, body: bytes) -> bytes:
        box = encrypt_to(self.holder_vk, body, self.rng)
        return canonical.encode({"challenge": box.to_wire()})

    def holder_awaiting_challenge(self):
        """A holder's channel that has submitted its status, and the
        venue's end of it."""
        channel, hello = self._channel()
        venue_end = accept_channel(self.venue, hello)
        submit_status(channel, self.app_status)
        return channel, venue_end


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crypto, "_passphrase_key",
                      lambda passphrase, salt: hashlib.sha256(passphrase.encode() + salt).digest())
        patch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))  # 7 ms each
        yield _World(tmp_path_factory.mktemp("table"))


# -- mutations ------------------------------------------------------------------


def _nested(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=8), kids, max_size=3)),
        max_leaves=6)


CANONICAL_VALUES = _nested(st.one_of(st.integers(0, 2**64 - 1), st.booleans(),
                                     st.binary(max_size=70), st.text(max_size=12)))
JSON_VALUES = _nested(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                                st.text(max_size=12)))


@st.composite
def byte_mutants(draw, seeds):
    """A seed with one to three bit flips, insertions, deletions or cuts."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("flip", "insert", "delete", "cut")))
        if op == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 4))]
        elif op == "cut":
            del data[at:]
    return bytes(data)


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _changed(value, path, change):
    """A copy of ``value`` whose node at ``path`` is ``change(node)``."""
    if not path:
        return change(value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _changed(value[path[0]], path[1:], change)
    return copy


@st.composite
def tree_mutants(draw, seeds, values):
    """A seed value with a key dropped or added, or a node replaced by a
    generated value, once or twice."""
    value = draw(st.sampled_from(seeds))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_nodes(value))))
        op = draw(st.sampled_from(("replace", "drop", "add")))
        new = draw(values)

        def change(node):
            if op == "drop" and isinstance(node, dict) and node:
                node = dict(node)
                del node[draw(st.sampled_from(sorted(node)))]
                return node
            if op == "add" and isinstance(node, dict):
                return {**node, draw(st.text(max_size=8)): new}
            return new

        value = _changed(value, path, change)
    return value


def canonical_mutants(seeds):
    decoded = [canonical.decode(seed) for seed in seeds]
    return st.one_of(byte_mutants(seeds),
                     tree_mutants(decoded, CANONICAL_VALUES).map(canonical.encode))


def json_lines_mutants(seeds):
    """Byte mutants of a JSON-lines file, and files whose decoded lines
    were mutated as trees."""
    decoded = [list(map(json.loads, seed.splitlines())) for seed in seeds]
    lines = tree_mutants(decoded, JSON_VALUES).map(
        lambda records: "".join(json.dumps(r) + "\n"
                                for r in (records if isinstance(records, list) else [records])
                                ).encode())
    return st.one_of(byte_mutants(seeds), lines)


def text_mutants(seeds):
    """Texts with characters flipped, inserted or cut, read as UTF-8."""
    return byte_mutants([s.encode() for s in seeds]).map(
        lambda data: data.decode("utf-8", "replace"))


# -- the table --------------------------------------------------------------------


@contextlib.contextmanager
def _cli_env():
    with mock.patch.dict(os.environ):
        for name in ("VAXCRED_KEYSTORE", "VAXCRED_REGISTRY", "VAXCRED_CONFIG"):
            os.environ.pop(name, None)
        os.environ["VAXCRED_PASSPHRASE"] = PASS
        yield


def run_cli(argv) -> None:
    """``cli.main`` returns, or argparse refuses the usage (exit 2); it
    never reports an internal error."""
    err = io.StringIO()
    with _cli_env(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, err.getvalue()
    assert "internal error:" not in err.getvalue(), (argv, err.getvalue())


def _qr_body(world, data):
    decode_qr("BDG1:" + base64.b32encode(data).decode().rstrip("="))


def _signing_response(world, data):
    client = SigningClient("127.0.0.1", 0)
    client._exchange = lambda request: data  # the reply a server sent
    client.sign_badge_request(*world.request_parts)


def _signing_request(world, data):
    response = canonical.decode(handle_request_bytes(world.issuer, data))
    assert response.get("error") != "internal"


def _hello(world, data):
    accept_channel(world.venue, data)


def _status_frame(world, data):
    channel, hello = world._channel()
    venue_end = accept_channel(world.venue, hello)
    session = venue_start(world.venue, [world.vk], required_level=1, rng=world.rng)
    session.process_status(venue_end, channel.seal(data), 0)


def _challenge_frame(world, data):
    channel, venue_end = world.holder_awaiting_challenge()
    receive_challenge(channel, world.holder, venue_end.seal(data))


def _challenge_body(world, data):
    _challenge_frame(world, world._challenge(data))


def _wallet_file(world, data):
    path = world.tmp / "under-test.wallet"
    path.write_bytes(crypto.seal_with_passphrase(data, PASS, wallet._WALLET_INFO))
    load_wallet(path, PASS)


def _key_seed(world, data):
    KeyHandle.unseal(crypto.seal_with_passphrase(data, PASS, crypto._SEAL_INFO), PASS)


def _registry_log(world, data):
    path = world.tmp / "under-test.jsonl"
    path.write_bytes(data)
    with Registry(str(path)):
        pass


def _file_read_by_cli(name, *argv):
    def read(world, data):
        pathlib.Path(world.path[name]).write_bytes(data)
        run_cli([arg.format(**world.path) for arg in argv])
    return read


def _not_a_port(value: str) -> bool:
    text = value.strip()
    return not (text.isdecimal() and len(text) <= 5 and int(text) <= 65535)


HOSTILE = ["", "-1", "7", "99999", "1" + "0" * 400, "zz", "xx", "nan", "inf", "-inf",
           "1e400", "\x00", "\ud800", "@", "@/nonexistent/file", "2021-02-30", "20210301",
           "a=b", "=", ",", "1,x", "0" * 64, "ff" * 32, "CPN1:AAAA", "vax://c/AAAA"]
ARG = st.one_of(st.sampled_from(HOSTILE),
                st.text(max_size=16).filter(lambda s: not s.startswith("@")))
DOSE = ["--product", "VX", "--lot", "L-9", "--site", "S-1"]
VACCINATE = ["pharmacy", "vaccinate", "--issuer-pub", "{pub}", "--registry",
             "{registry}", "--key", "{key}", *DOSE]
# each names an argument value slot "{v}"; no template can start a
# server, contact a host other than 127.0.0.1 or write outside the world
ARGV = [
    (ARG, ["venue", "gate", "--wallet", "{app_wallet}", "--required-level", "{v}"]),
    (ARG.filter(_not_a_port), ["issuer", "serve", "--registry", "{registry}",
                               "--port", "{v}"]),
    (ARG.filter(_not_a_port), [*VACCINATE, "--coupon", "{coupon}", "--variant", "paper",
                               "--pii", "name=x", "--service", "127.0.0.1:{v}"]),
    (ARG, [*VACCINATE, "--coupon", "{coupon}", "--variant", "app", "--pii-root", "{v}",
           "--user-pub", "{holder}"]),
    (ARG, [*VACCINATE, "--coupon", "{coupon}", "--variant", "paper", "--pii", "{v}"]),
    (ARG, [*VACCINATE, "--coupon", "{v}", "--variant", "paper", "--pii", "name=x"]),
    (ARG, [*VACCINATE, "--coupon", "{coupon}", "--variant", "paper", "--pii", "name=x",
           "--date", "{v}"]),
    (ARG, ["pharmacy", "admit", "--coupon", "{v}", "--issuer-pub", "{pub}",
           "--registry", "{registry}"]),
    (ARG, ["pharmacy", "second-dose", "--badge", "{v}", "--issuer-pub", "{pub}",
           "--registry", "{registry}", "--key", "{key}", *DOSE]),
    (ARG, ["issuer", "issue-batch", "--n", "1", "--zip", "{v}", "--job", "healthcare",
           "--start-index", "100", "--registry", "{registry}", "--key", "{key}"]),
    (ARG, ["issuer", "issue-batch", "--n", "1", "--zip", "02139", "--job", "healthcare",
           "--start-index", "{v}", "--registry", "{registry}", "--key", "{key}"]),
    (ARG, ["distributor", "give", "--batch", "{batch}", "--state", "{give}",
           "--subject", "s-1", "--zip", "{v}", "--job", "healthcare"]),
    (ARG, ["user", "due", "--wallet", "{paper_wallet}", "--date", "{v}"]),
    (ARG, ["user", "disclose", "--wallet", "{app_wallet}", "--labels", "{v}"]),
    (ARG, ["user", "init", "--wallet", "{new_wallet}", "--variant", "app", "--pii", "{v}"]),
    (ARG, ["venue", "verify", "--issuer-pub", "{v}", "--status", "{status}"]),
    (ARG, ["venue", "verify", "--issuer-pub", "{pub}", "--status", "{v}"]),
    (ARG, ["venue", "verify", "--issuer-pub", "{pub}", "--badge", "{badge}",
           "--required-level", "{v}"]),
    (ARG, ["health", "noise", "--totals", "{v}", "--n", "2", "--epsilon", "1", "--seed", "1"]),
    (ARG, ["health", "noise", "--totals", "4,1", "--n", "2", "--epsilon", "{v}",
           "--sensitivity", "{v}"]),
    (ARG, ["health", "split", "--vector", "{v}", "--p", "{v}", "--seed", "1"]),
    (ARG, ["health", "report", "--vector", "1,2", "--store", "{store}",
           "--registry", "{registry}", "--date", "{v}"]),
    (ARG, ["health", "feed", "--out", "{out}", "--entry", "{v}"]),
    (ARG, ["health", "match", "--feed", "{feed}", "--conditions", "{v}", "--lot", "{v}"]),
    (ARG, ["sim", "run", "--scenario", "double-spend", "--seed", "{v}"]),
]


def _argv_entry(values, template):
    def argv(world):
        slots = dict(world.path, pub=world.vk.hex(), holder=world.holder_vk.hex(),
                     coupon=encode_qr(world.coupons[9]), status=encode_qr(world.status),
                     badge=encode_qr(world.badge))
        return values.map(lambda v: [arg.format(v=v, **slots) for arg in template])
    return argv, lambda world, argv: run_cli(argv)


WIRE_READERS = {
    "Coupon": Coupon.from_wire, "CouponPayload": CouponPayload.from_wire,
    "Badge": Badge.from_wire, "BadgeInfo": BadgeInfo.from_wire, "DoseInfo": DoseInfo.from_wire,
    "Status": Status.from_wire, "StatusPayload": StatusPayload.from_wire,
    "Passkey": Passkey.from_wire, "DisclosureProof": DisclosureProof.from_wire,
    "VenueAdvertisement": VenueAdvertisement.from_wire, "VerifyingKey": VerifyingKey.from_wire,
    "PkCiphertext": PkCiphertext.from_wire, "Presentation": Presentation.from_wire,
    "binding": binding_from_wire,
}


def _wire_entry(name):
    return (lambda world: canonical_mutants(world.wire[name]),
            lambda world, data: WIRE_READERS[name](canonical.decode(data)))


# named by the command and the flag whose value is drawn
ARGV_ENTRIES = {"cli: " + " ".join(t[:2] + [t[i - 1] for i, a in enumerate(t) if "{v}" in a]):
                _argv_entry(v, t) for v, t in ARGV}
assert len(ARGV_ENTRIES) == len(ARGV)

# name: (the strategy of one input, given the world; the entry, fed that input)
ENTRIES = {
    **{f"from_wire:{name}": _wire_entry(name) for name in WIRE_READERS},
    "decode_qr": (lambda world: text_mutants(world.qr), lambda world, text: decode_qr(text)),
    "decode_qr body": (lambda world: canonical_mutants(world.wire["Badge"]), _qr_body),
    "import_coupon_url": (lambda world: text_mutants(world.urls),
                          lambda world, text: import_coupon_url(text)),
    "handle_request_bytes": (lambda world: canonical_mutants(world.requests), _signing_request),
    "signing response": (lambda world: canonical_mutants(world.responses), _signing_response),
    "channel hello": (lambda world: canonical_mutants(world.hellos), _hello),
    "status frame": (lambda world: canonical_mutants(world.wire["Status"]), _status_frame),
    "challenge frame": (lambda world: canonical_mutants(world.challenge_frames),
                        _challenge_frame),
    "challenge body": (lambda world: canonical_mutants(world.challenge_bodies),
                       _challenge_body),
    "parse_config": (lambda world: st.one_of(text_mutants([c.decode() for c in world.config]),
                                             st.text(max_size=40)),
                     lambda world, text: parse_config(text)),
    "wallet file": (lambda world: canonical_mutants(world.wallet_bodies), _wallet_file),
    "key file": (lambda world: byte_mutants([world.key_blob]),
                 lambda world, blob: KeyHandle.unseal(blob, PASS)),
    "key seed": (lambda world: st.binary(max_size=80), _key_seed),
    "registry log": (lambda world: json_lines_mutants([world.log]), _registry_log),
    "distributor journal": (
        lambda world: json_lines_mutants(world.files["state"]),
        _file_read_by_cli("state", "distributor", "give", "--batch", "{batch}",
                          "--state", "{state}", "--subject", "s-2", "--zip", "02139",
                          "--job", "healthcare")),
    "report store": (
        lambda world: json_lines_mutants(world.files["store"]),
        _file_read_by_cli("store", "health", "report", "--vector", "1,0", "--store",
                          "{store}", "--registry", "{registry}",
                          "--date", "2021-04-01")),
    "share file": (
        lambda world: json_lines_mutants(world.files["shares"]),
        _file_read_by_cli("shares", "health", "aggregate", "--shares", "{shares}")),
    "feed file": (
        lambda world: json_lines_mutants(world.files["feed"]),
        _file_read_by_cli("feed", "health", "match", "--feed", "{feed}",
                          "--lot", "L-1", "--conditions", "c-1")),
    **ARGV_ENTRIES,
}


@pytest.mark.parametrize("entry", list(ENTRIES))
@TABLE
@given(data=st.data())
def test_outside_input_is_read_or_refused_as_a_typed_error(world, entry, data):
    strategy, read = ENTRIES[entry]
    if entry not in world.strategies:
        world.strategies[entry] = strategy(world)
    value = data.draw(world.strategies[entry], label=entry)
    try:
        read(world, value)
    except VaxError:
        pass
