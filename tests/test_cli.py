"""The command-line surface, driven in-process through cli.main."""

import json
import os
import pathlib
import random
import re
import shlex
import signal
import stat
import subprocess
import sys
import unicodedata

import pytest

from vaxcred import cli
from vaxcred.coupons import Coupon
from vaxcred.credentials import DoseInfo, PasskeyHash, StatusPayload, VaccinationLevel
from vaxcred.crypto import KeyHandle, generate_keypair
from vaxcred.errors import CanonicalError
from vaxcred.health import SymptomReport, SymptomVector
from vaxcred.qr import decode_qr, encode_qr
from vaxcred.registry import Registry, Stage
from vaxcred.service import SigningClient, serve
from vaxcred.vaccination import BadgeIssuer


@pytest.fixture
def env(tmp_path, monkeypatch):
    monkeypatch.setenv("VAXCRED_PASSPHRASE", "marmot circus tundra")
    monkeypatch.setenv("VAXCRED_KEYSTORE", str(tmp_path / "issuer.key"))
    monkeypatch.setenv("VAXCRED_REGISTRY", str(tmp_path / "registry.jsonl"))
    monkeypatch.delenv("VAXCRED_CONFIG", raising=False)
    return tmp_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _issue_batch(capsys, env, n=3, job="healthcare"):
    assert run(capsys, "issuer", "keygen")[0] == 0
    code, out, err = run(
        capsys, "issuer", "issue-batch", "--n", str(n), "--zip", "02139",
        "--job", job, "--out", str(env / "batch.txt"),
    )
    assert code == 0, err
    lines = (env / "batch.txt").read_text().splitlines()
    assert len(lines) == n and all(l.startswith("CPN1:") for l in lines)
    return lines


def test_keygen_writes_both_halves(capsys, env):
    code, out, _ = run(capsys, "issuer", "keygen")
    assert code == 0
    assert (env / "issuer.key").exists()
    pub = (env / "issuer.key.pub").read_text().strip()
    assert len(bytes.fromhex(pub)) == 64


def test_keygen_refuses_an_existing_key(capsys, env):
    """A second keygen on the same path would orphan everything signed
    under the first key: it exits non-zero and writes nothing."""
    assert run(capsys, "issuer", "keygen")[0] == 0
    key, pub = env / "issuer.key", env / "issuer.key.pub"
    assert stat.S_IMODE(os.stat(key).st_mode) == 0o600
    sealed, public = key.read_bytes(), pub.read_text()
    code, _, err = run(capsys, "issuer", "keygen")
    assert code != 0 and "exists" in err
    assert key.read_bytes() == sealed and pub.read_text() == public


def test_issue_batch_to_file_and_stdout(capsys, env):
    _issue_batch(capsys, env)
    code, out, _ = run(
        capsys, "issuer", "issue-batch", "--n", "2", "--zip", "02139",
        "--job", "transit", "--start-index", "10",
    )
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("CPN1:")) == 2


def test_distributor_walks_the_batch(capsys, env):
    _issue_batch(capsys, env, n=2)
    state = env / "handed.json"
    args = ("distributor", "give", "--batch", str(env / "batch.txt"),
            "--state", str(state), "--subject", "S1",
            "--zip", "02139", "--job", "healthcare")
    code, out1, _ = run(capsys, *args)
    assert code == 0 and out1.startswith("CPN1:")
    code, out2, _ = run(capsys, *args)
    assert code == 0 and out2 != out1  # next coupon in order
    code, _, err = run(capsys, *args)
    assert code == 2 and "batch-exhausted" in err
    # eligibility mismatch is a typed failure, not a coupon burn
    code, _, err = run(
        capsys, "distributor", "give", "--batch", str(env / "batch.txt"),
        "--state", str(env / "other.json"), "--subject", "S2",
        "--zip", "99999", "--job", "healthcare",
    )
    assert code == 2 and "mismatch" in err


# runs `vaxcred <argv>` the given number of times, printing each output
_REPEAT = """
import sys
from vaxcred import cli
for _ in range(int(sys.argv[1])):
    if cli.main(sys.argv[2:]) != 0:
        sys.exit(1)
"""


def _two_at_once(times, *argv) -> list:
    """The stdout of two processes each running a command ``times`` times,
    started together."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    procs = [subprocess.Popen([sys.executable, "-c", _REPEAT, str(times), *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
             for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    return [out for out, _ in outs]


def test_concurrent_distributors_hand_out_each_coupon_once(capsys, env):
    """Two `distributor give` processes share one state journal: the
    choice of coupon and its record are made under its lock."""
    lines = _issue_batch(capsys, env, n=30)
    outs = _two_at_once(15, "distributor", "give", "--batch", str(env / "batch.txt"),
                        "--state", str(env / "handed.json"), "--subject", "S",
                        "--zip", "02139", "--job", "healthcare")
    assert sorted(line for out in outs for line in out.splitlines()) == sorted(lines)


def test_distributor_refuses_an_old_state_file(capsys, env):
    """Older releases kept state as one JSON object with no newline, which
    the journal would cut as a torn line: it is refused and left as it is,
    and a newline converts it. A torn last line in the new form is cut."""
    lines = _issue_batch(capsys, env, n=3)
    state = env / "handed.json"
    old = json.dumps({"released": [0]})
    state.write_text(old)
    give = ("distributor", "give", "--batch", str(env / "batch.txt"), "--state",
            str(state), "--subject", "S1", "--zip", "02139", "--job", "healthcare")
    code, _, err = run(capsys, *give)
    assert code == 2 and "old form" in err and state.read_text() == old
    state.write_text(old + '\n{"released": [')
    code, out, _ = run(capsys, *give)
    assert code == 0 and out.strip() == lines[1]
    assert state.read_text() == old + '\n{"released": [1]}\n'


@pytest.mark.parametrize("line", ['{"released": "x"}', '{"released": [99]}',
                                  '{"released": [true]}', '{"released": 1}', '[0]',
                                  pytest.param("[" * 100_000, id="nested-too-deep")])
def test_distributor_refuses_a_malformed_state_line(capsys, env, line):
    """A state line that is not a list of the batch's indices is refused:
    ``"x"`` was read as the index set {"x"} and [99] was passed over."""
    _issue_batch(capsys, env, n=3)
    state = env / "handed.jsonl"
    state.write_text(line + "\n")
    code, out, err = run(capsys, "distributor", "give", "--batch", str(env / "batch.txt"),
                         "--state", str(state), "--subject", "S1", "--zip", "02139",
                         "--job", "healthcare")
    assert code == 2 and out == "" and err.startswith("error (canonical)")
    assert state.read_text() == line + "\n"


def test_distributor_url_form(capsys, env):
    _issue_batch(capsys, env, n=1)
    code, out, _ = run(
        capsys, "distributor", "give", "--batch", str(env / "batch.txt"),
        "--state", str(env / "handed.json"),
        "--subject", "S1", "--zip", "02139", "--job", "healthcare", "--url",
    )
    assert code == 0
    url = out.strip()
    assert url.startswith("vax://c/") and len(url) <= 256


def test_distributor_needs_its_state(capsys, env):
    """Without a journal of what was handed out, every `give` would hand
    out the first coupon again: the flag is required."""
    _issue_batch(capsys, env, n=2)
    with pytest.raises(SystemExit) as exited:
        run(capsys, "distributor", "give", "--batch", str(env / "batch.txt"),
            "--subject", "S1", "--zip", "02139", "--job", "healthcare")
    assert exited.value.code != 0
    out, err = capsys.readouterr()
    assert "CPN1:" not in out and "--state" in err


def _vaccinate_paper(capsys, env, coupon_line):
    (env / "c1.txt").write_text(coupon_line + "\n")
    code, out, err = run(
        capsys, "pharmacy", "vaccinate", "--coupon", "@" + str(env / "c1.txt"),
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--variant", "paper", "--pii", "name=Ada Q", "--pii", "dob=1970-01-01",
        "--product", "VX-ALPHA", "--lot", "L-1", "--site", "S-01",
        "--date", "2021-03-01",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("BDG1:")
    assert lines[1].startswith("STS1:")
    assert lines[2].startswith("PSK1:")
    return lines


def test_pharmacy_paper_round_and_double_spend(capsys, env):
    batch = _issue_batch(capsys, env, n=1)
    code, out, _ = run(
        capsys, "pharmacy", "admit", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
    )
    assert code == 0 and out.startswith("admit:")

    _vaccinate_paper(capsys, env, batch[0])
    code, _, err = run(
        capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--variant", "paper", "--pii", "name=Ada Q", "--pii", "dob=1970-01-01",
        "--product", "VX-ALPHA", "--lot", "L-1", "--site", "S-01",
        "--date", "2021-03-01",
    )
    assert code == 2 and "already-used" in err

    code, out, _ = run(
        capsys, "pharmacy", "admit", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
    )
    assert code == 2 and out.startswith("reject:")  # rejection exits nonzero


def test_pharmacy_vaccinate_through_the_signing_service(capsys, env, monkeypatch):
    """--service signs over the wire and closes the client's connection."""
    batch = _issue_batch(capsys, env, n=1)
    handle = KeyHandle.unseal((env / "issuer.key").read_bytes(), "marmot circus tundra")
    closed = []
    close = SigningClient.close
    monkeypatch.setattr(SigningClient, "close", lambda self: closed.append(close(self)))
    with Registry(env / "registry.jsonl") as registry:
        server = serve(BadgeIssuer(handle, registry))
        try:
            code, out, err = run(
                capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
                "--issuer-pub", "@" + str(env / "issuer.key.pub"),
                "--variant", "paper", "--pii", "name=Ada Q", "--pii", "dob=1970-01-01",
                "--product", "VX-ALPHA", "--lot", "L-1", "--site", "S-01",
                "--date", "2021-03-01", "--service", f"127.0.0.1:{server.port}",
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0, err
        assert out.startswith("BDG1:")
        coupon = decode_qr(batch[0], Coupon)
        assert registry.check(coupon.coupon_id).stage is Stage.DOSE1
    assert len(closed) == 1


def test_issuer_serve_as_deployed_stops_on_sigterm(capsys, env):
    """`issuer serve` in its own process, as deployed: it prints the port
    it was given, signs a dose sent with --service, and on SIGTERM, a
    service manager's stop, shuts the server down, closes the registry
    and exits 0, warning-free in development mode. The log holds the dose."""
    batch = _issue_batch(capsys, env, n=1)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    server = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "vaxcred.cli",
         "issuer", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        port = int(server.stdout.readline().rsplit(":", 1)[1])
        code, out, err = run(
            capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
            "--issuer-pub", "@" + str(env / "issuer.key.pub"),
            "--variant", "paper", "--pii", "name=Ada Q", "--product", "VX-ALPHA",
            "--lot", "L-1", "--site", "S-01", "--service", f"127.0.0.1:{port}",
        )
        assert code == 0, err
        server.send_signal(signal.SIGTERM)
        _, stderr = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0 and stderr == ""
    with Registry(env / "registry.jsonl") as registry:
        assert registry.check(decode_qr(batch[0], Coupon).coupon_id).stage is Stage.DOSE1


def test_the_signing_service_finds_batches_issued_after_it_started(capsys, env):
    """The server's registry looks again in the log for a coupon it does
    not hold, so a batch issued while it runs is served."""
    assert run(capsys, "issuer", "keygen")[0] == 0
    handle = KeyHandle.unseal((env / "issuer.key").read_bytes(), "marmot circus tundra")
    with Registry(env / "registry.jsonl") as registry:
        server = serve(BadgeIssuer(handle, registry))
        try:
            code, coupon, _ = run(capsys, "issuer", "issue-batch", "--n", "1",
                                  "--zip", "02139", "--job", "healthcare")
            code, out, err = run(
                capsys, "pharmacy", "vaccinate", "--coupon", coupon.strip(),
                "--issuer-pub", "@" + str(env / "issuer.key.pub"),
                "--variant", "paper", "--pii", "name=Ada Q", "--product", "VX-ALPHA",
                "--lot", "L-1", "--site", "S-01", "--service", f"127.0.0.1:{server.port}",
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0, err
        cid = decode_qr(coupon.strip(), Coupon).coupon_id
        assert registry.check(cid).stage is Stage.DOSE1


def test_wallet_lifecycle_and_disclosure(capsys, env):
    batch = _issue_batch(capsys, env, n=1)
    bdg, sts, psk = _vaccinate_paper(capsys, env, batch[0])

    wallet = env / "w.sealed"
    assert run(capsys, "user", "init", "--wallet", str(wallet),
               "--variant", "paper")[0] == 0
    code, out, err = run(
        capsys, "user", "store", "--wallet", str(wallet),
        "--badge", bdg, "--status", sts, "--passkey", psk,
    )
    assert code == 0, err
    code, out, _ = run(capsys, "user", "show", "--wallet", str(wallet))
    assert code == 0
    assert "variant: paper" in out and "level: 1" in out
    assert "passkey:" not in out  # secrets stay sealed unless asked
    code, out, _ = run(capsys, "user", "show", "--wallet", str(wallet),
                       "--secrets")
    assert "passkey: PSK1:" in out

    code, out, _ = run(capsys, "user", "disclose", "--wallet", str(wallet),
                       "--passkey")
    assert code == 0
    sts_line, psk_line = out.splitlines()[:2]

    code, out, _ = run(
        capsys, "venue", "verify", "--issuer-pub",
        "@" + str(env / "issuer.key.pub"),
        "--status", sts_line, "--passkey", psk_line,
    )
    assert code == 0 and out.startswith("accept: level 1")
    assert "name: Ada Q" in out

    # wrong passphrase never opens the wallet
    code, _, err = run(capsys, "user", "show", "--wallet", str(wallet),
                       "--passphrase", "wrong wrong wrong")
    assert code == 2 and "auth-failure" in err


def _app_wallet(capsys, env, pii, product="VX-ALPHA"):
    """An app wallet holding ``pii`` and the credentials of a first dose
    of ``product``."""
    batch = _issue_batch(capsys, env, n=1)
    wallet = env / "app.sealed"
    code, out, _ = run(
        capsys, "user", "init", "--wallet", str(wallet), "--variant", "app",
        *(arg for pair in pii for arg in ("--pii", pair)), "--coupon", batch[0],
    )
    assert code == 0
    holder_key = next(l for l in out.splitlines() if l.startswith("holder key:"))
    root = next(l for l in out.splitlines() if l.startswith("tree root:"))

    code, out, err = run(
        capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--variant", "app",
        "--pii-root", root.split(": ")[1],
        "--user-pub", holder_key.split(": ")[1],
        "--product", product, "--lot", "L-2", "--site", "S-03",
        "--date", "2021-03-02",
    )
    assert code == 0, err
    bdg, sts = out.splitlines()[:2]
    assert run(capsys, "user", "store", "--wallet", str(wallet),
               "--badge", bdg, "--status", sts)[0] == 0
    return wallet


def test_app_wallet_selective_disclosure(capsys, env):
    wallet = _app_wallet(capsys, env, ["name=Bea R", "dob=1980-05-05", "zip=02139"])
    code, out, _ = run(capsys, "user", "disclose", "--wallet", str(wallet),
                       "--labels", "dob")
    assert code == 0
    sts_line, proof_line = out.splitlines()[:2]
    assert proof_line.startswith("DSC1:")
    assert "Bea R" not in out  # undisclosed label stays private

    code, out, _ = run(
        capsys, "venue", "verify", "--issuer-pub",
        "@" + str(env / "issuer.key.pub"),
        "--status", sts_line, "--proof", proof_line,
        "--require-labels", "dob",
    )
    assert code == 0
    assert "dob: 1980-05-05" in out and "Bea R" not in out

    # demanding a label the proof does not carry fails closed
    code, out, _ = run(
        capsys, "venue", "verify", "--issuer-pub",
        "@" + str(env / "issuer.key.pub"),
        "--status", sts_line, "--proof", proof_line,
        "--require-labels", "dob,name",
    )
    assert code == 2 and out.startswith("reject:")


@pytest.mark.parametrize("text, shown", [
    ("Ada Q, 1970-01-01 (VX-ALPHA)", "Ada Q, 1970-01-01 (VX-ALPHA)"),
    ("Bea\n  note: forged line\x1b[31m", r"Bea\n  note: forged line\x1b[31m"),
    ("a\\b\tc\r", r"a\\b\tc\r"),
    ("left\u202eright\u200b", r"left\u202eright\u200b"),  # bidi override, zero width
    ("one\u2028two\u00a0three", r"one\u2028two\xa0three"),  # line separator, no-break space
    ("Zoë 東京", "Zoë 東京"),
])
def test_outside_text_is_shown_escaped(text, shown):
    assert cli._shown(text) == shown


def test_every_control_and_format_character_is_escaped():
    hidden = [chr(c) for c in range(0x110000)
              if unicodedata.category(chr(c)) in ("Cc", "Cf")]
    assert len(hidden) > 150
    for char in hidden:
        shown = cli._shown(char)
        assert shown.startswith("\\") and shown.isascii() and shown.isprintable(), repr(char)


def test_outside_text_prints_as_one_escaped_line(capsys, env):
    """Text the holder or a feed chose reaches the terminal escaped: a
    newline cannot forge a line and ESC cannot move the cursor (CWE-150).
    The signed values still verify, so each command exits 0."""
    forged = "Bea\n  note: forged line\x1b[31m"
    wallet = _app_wallet(capsys, env, [f"name={forged}"], product="VX-ALPHA\x1b[2J")
    code, out, _ = run(capsys, "user", "show", "--wallet", str(wallet))
    assert code == 0 and "\x1b" not in out
    assert r"doses: #1 VX-ALPHA\x1b[2J 2021-03-02" in out.splitlines()

    code, out, _ = run(capsys, "user", "disclose", "--wallet", str(wallet),
                       "--labels", "name")
    sts_line, proof_line = out.splitlines()[:2]
    code, out, _ = run(
        capsys, "venue", "verify", "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--status", sts_line, "--proof", proof_line, "--require-labels", "name",
    )
    assert code == 0 and "\x1b" not in out
    assert out.splitlines() == ["accept: level 1", r"  name: Bea\n  note: forged line\x1b[31m"]

    feed = env / "alerts.jsonl"
    assert run(capsys, "health", "feed", "--out", str(feed), "--date", "2021-04-02",
               "--entry", "lot:L-1:storage\x1b[31m excursion\nall clear")[0] == 0
    code, out, _ = run(capsys, "health", "match", "--feed", str(feed), "--lot", "L-1")
    assert code == 0 and out == "lot:L-1: storage\\x1b[31m excursion\\nall clear\n"


def test_second_dose_and_due(capsys, env):
    batch = _issue_batch(capsys, env, n=1)
    bdg, sts, psk = _vaccinate_paper(capsys, env, batch[0])
    wallet = env / "w2.sealed"
    run(capsys, "user", "init", "--wallet", str(wallet), "--variant", "paper")
    run(capsys, "user", "store", "--wallet", str(wallet),
        "--badge", bdg, "--status", sts, "--passkey", psk)

    code, out, _ = run(capsys, "user", "due", "--wallet", str(wallet),
                       "--date", "2021-03-10")
    assert code == 0 and out.startswith("not due:")
    code, out, _ = run(capsys, "user", "due", "--wallet", str(wallet),
                       "--date", "2021-04-01")
    assert code == 0 and "due" in out

    code, out, err = run(
        capsys, "pharmacy", "second-dose", "--badge", bdg,
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--product", "VX-ALPHA", "--lot", "L-8", "--site", "S-01",
        "--date", "2021-03-22",
    )
    assert code == 0, err
    bdg2, sts2 = out.splitlines()[:2]
    run(capsys, "user", "store", "--wallet", str(wallet),
        "--badge", bdg2, "--status", sts2, "--passkey", psk)
    code, out, _ = run(capsys, "user", "show", "--wallet", str(wallet))
    assert "level: 2" in out

    code, _, err = run(
        capsys, "pharmacy", "second-dose", "--badge", bdg,
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--product", "VX-ALPHA", "--lot", "L-8", "--site", "S-01",
        "--date", "2021-03-22",
    )
    assert code == 2  # course already complete for that coupon


@pytest.mark.parametrize("spelling", ["20210301", "2021-W09-1"])
def test_a_date_has_one_spelling(capsys, env, spelling):
    """From 3.11 ``date.fromisoformat`` reads both as 2021-03-01. A date
    is written YYYY-MM-DD only, so each reader of one refuses them."""
    with pytest.raises(CanonicalError):
        DoseInfo(product="VX-ALPHA", lot="L-1", date=spelling, dose_number=1, site_id="S-01")
    with pytest.raises(CanonicalError):
        StatusPayload(VaccinationLevel.DOSE1, PasskeyHash(bytes(32)), spelling)
    with pytest.raises(CanonicalError):
        SymptomReport(vector=SymptomVector((1, 0, 2)), timestamp=spelling)
    bdg, sts, psk = _vaccinate_paper(capsys, env, _issue_batch(capsys, env, n=1)[0])
    wallet = env / "w.sealed"
    run(capsys, "user", "init", "--wallet", str(wallet), "--variant", "paper")
    run(capsys, "user", "store", "--wallet", str(wallet),
        "--badge", bdg, "--status", sts, "--passkey", psk)
    due = ("user", "due", "--wallet", str(wallet), "--date")
    assert run(capsys, *due, "2021-03-01")[0] == 0
    code, out, err = run(capsys, *due, spelling)
    assert code == 2 and out == "" and err.startswith("error (canonical)")


def test_a_zip_code_is_five_digits_and_nothing_after(capsys, env):
    """``$`` also matches before a final newline; a zip is matched whole."""
    assert run(capsys, "issuer", "keygen")[0] == 0
    code, out, err = run(capsys, "issuer", "issue-batch", "--n", "1", "--zip", "02139\n",
                         "--job", "healthcare")
    assert code == 2 and out == "" and err.startswith("error (invalid-zip)")


def _gate_wallet(capsys, env):
    """An app wallet holding a first-dose status, ready for the gate."""
    batch = _issue_batch(capsys, env, n=1)
    wallet = env / "gate.sealed"
    code, out, _ = run(
        capsys, "user", "init", "--wallet", str(wallet), "--variant", "app",
        "--pii", "name=Cy T", "--coupon", batch[0],
    )
    holder_key = next(l for l in out.splitlines()
                      if l.startswith("holder key:")).split(": ")[1]
    root = next(l for l in out.splitlines()
                if l.startswith("tree root:")).split(": ")[1]
    code, out, _ = run(
        capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--variant", "app", "--pii-root", root, "--user-pub", holder_key,
        "--product", "VX-ALPHA", "--lot", "L-1", "--site", "S-01",
        "--date", "2021-03-01",
    )
    bdg, sts = out.splitlines()[:2]
    run(capsys, "user", "store", "--wallet", str(wallet),
        "--badge", bdg, "--status", sts)
    return wallet


def test_venue_gate_demo(capsys, env):
    wallet = _gate_wallet(capsys, env)
    code, out, _ = run(capsys, "venue", "gate", "--wallet", str(wallet),
                       "--required-level", "1", "--seed", "7")
    assert code == 0 and out.startswith("admit: code ")
    code, out, _ = run(capsys, "venue", "gate", "--wallet", str(wallet),
                       "--required-level", "2", "--seed", "7")
    assert code == 2 and out.startswith("reject: below-policy")
    # a code presented two windows late is refused at the door
    code, out, _ = run(capsys, "venue", "gate", "--wallet", str(wallet),
                       "--required-level", "1", "--seed", "7",
                       "--rotation", "60", "--delay", "120")
    assert code == 2 and out == "reject: stale-code\n"


@pytest.mark.parametrize("level", ["7", "-1"])
def test_venue_gate_refuses_a_level_with_no_meaning(capsys, env, level):
    wallet = _gate_wallet(capsys, env)
    code, out, err = run(capsys, "venue", "gate", "--wallet", str(wallet),
                         "--required-level", level)
    assert code == 2 and out == "" and err.startswith("error (config)")


def test_issuer_serve_refuses_a_port_out_of_range(capsys, env):
    assert run(capsys, "issuer", "keygen")[0] == 0
    code, out, err = run(capsys, "issuer", "serve", "--port", "99999")
    assert code == 2 and out == "" and err.startswith("error (config)")


@pytest.mark.parametrize("service", ["localhost:xx", "localhost:99999", "localhost"])
def test_vaccinate_refuses_a_service_port_that_is_not_one(capsys, env, service):
    batch = _issue_batch(capsys, env, n=1)
    code, out, err = run(
        capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--variant", "paper", "--pii", "name=Ada Q",
        "--product", "VX-ALPHA", "--lot", "L-1", "--site", "S-01",
        "--date", "2021-03-01", "--service", service,
    )
    assert code == 2 and out == "" and err.startswith("error (config)")


def test_vaccinate_refuses_a_pii_root_that_is_not_hex(capsys, env):
    batch = _issue_batch(capsys, env, n=1)
    holder = generate_keypair(random.Random(3))[1].hex()
    code, out, err = run(
        capsys, "pharmacy", "vaccinate", "--coupon", batch[0],
        "--issuer-pub", "@" + str(env / "issuer.key.pub"),
        "--variant", "app", "--pii-root", "zz", "--user-pub", holder,
        "--product", "VX-ALPHA", "--lot", "L-1", "--site", "S-01",
        "--date", "2021-03-01",
    )
    assert code == 2 and out == "" and err.startswith("error (config)")
    code, out, _ = run(capsys, "pharmacy", "admit", "--coupon", batch[0],
                       "--issuer-pub", "@" + str(env / "issuer.key.pub"))
    assert code == 0 and out == "admit: ok\n"  # no dose was recorded


def test_health_pipeline_via_files(capsys, env):
    code, out, _ = run(capsys, "health", "split", "--vector", "3,0,7",
                       "--seed", "9")
    assert code == 0
    bundle = json.loads(out)
    shares = env / "shares.jsonl"
    with open(shares, "w") as fh:
        fh.write(json.dumps(bundle) + "\n")
        fh.write(json.dumps(json.loads(
            run(capsys, "health", "split", "--vector", "1,1,1",
                "--seed", "10")[1])) + "\n")
    code, out, _ = run(capsys, "health", "aggregate", "--shares", str(shares))
    assert code == 0
    agg = json.loads(out)
    assert agg == {"n": 2, "totals": [4, 1, 8]}

    code, out, _ = run(
        capsys, "health", "noise", "--totals", "4,1,8", "--n", "2",
        "--epsilon", "1.0", "--seed", "3",
    )
    assert code == 0
    noisy = json.loads(out)
    assert noisy["epsilon"] == 1.0 and len(noisy["totals"]) == 3


@pytest.mark.parametrize("flag", ["--epsilon", "--sensitivity"])
def test_health_noise_refuses_an_infinite_parameter(capsys, flag):
    """An infinite epsilon printed un-noised totals as non-standard JSON,
    and an infinite sensitivity crashed; both are a typed refusal."""
    code, out, err = run(capsys, "health", "noise", "--totals", "4,1,8", "--n", "2",
                         "--epsilon", "1", flag, "inf")
    assert code == 2 and out == ""
    assert err.startswith("error (noise-parameter)")


def test_health_noise_refuses_an_infinite_scale(capsys):
    """Finite parameters whose quotient is infinite crashed the rounding."""
    code, out, err = run(capsys, "health", "noise", "--totals", "4,1,8", "--n", "2",
                         "--epsilon", "1e-300", "--sensitivity", "1e300")
    assert code == 2 and out == ""
    assert err.startswith("error (noise-parameter)")


def test_health_noise_refuses_a_total_beyond_float_range(capsys):
    code, out, err = run(capsys, "health", "noise", "--totals", "1" + "0" * 400, "--n", "2",
                         "--epsilon", "1", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error (noise-parameter)")


def test_health_report_refuses_a_date_that_is_not_one(capsys, env):
    store = env / "reports.jsonl"
    code, out, err = run(capsys, "health", "report", "--vector", "1,0,2", "--store",
                         str(store), "--date", "xx")
    assert code == 2 and out == "" and err.startswith("error (canonical)")
    assert not store.exists()


def test_health_split_refuses_a_vector_that_is_not_integers(capsys):
    code, out, err = run(capsys, "health", "split", "--vector", "1,x")
    assert code == 2 and out == "" and err.startswith("error (canonical)")


@pytest.mark.parametrize("line", ["7", '{"a": [1]}', '{"a": 3, "b": [1]}'])
def test_health_aggregate_refuses_a_line_that_is_not_a_share_pair(capsys, env, line):
    shares = env / "shares.jsonl"
    shares.write_text('{"a": [1], "b": [2]}\n' + line + "\n")
    code, out, err = run(capsys, "health", "aggregate", "--shares", str(shares))
    assert code == 2 and out == "" and err.startswith("error (canonical)")


@pytest.mark.parametrize("line", ['{"day": "2021-04-02", "key": "L-1", "message": "m"}',
                                  '["lot", "L-1", "m"]'])
def test_health_match_refuses_a_line_that_is_not_an_alert(capsys, env, line):
    feed = env / "alerts.jsonl"
    feed.write_text(line + "\n")
    code, out, err = run(capsys, "health", "match", "--feed", str(feed), "--lot", "L-1")
    assert code == 2 and out == "" and err.startswith("error (canonical)")


def test_health_report_and_feed(capsys, env):
    _issue_batch(capsys, env, n=1)
    store = env / "reports.jsonl"
    code, out, _ = run(capsys, "health", "report", "--vector", "1,0,2",
                       "--store", str(store), "--date", "2021-04-01")
    assert code == 0 and "accepted" in out
    record = json.loads(store.read_text().splitlines()[0])
    assert "coupon_id" not in record

    feed = env / "alerts.jsonl"
    code, out, _ = run(
        capsys, "health", "feed", "--out", str(feed), "--date", "2021-04-02",
        "--entry", "lot:L-1:storage excursion",
        "--entry", "product:VX-ALPHA:updated guidance",
    )
    assert code == 0
    code, out, _ = run(capsys, "health", "match", "--feed", str(feed),
                       "--lot", "L-1")
    assert code == 0 and "storage excursion" in out
    code, out, _ = run(capsys, "health", "match", "--feed", str(feed),
                       "--lot", "L-77")
    assert code == 0 and "no alerts match" in out


def test_concurrent_health_reports_lose_none(capsys, env):
    """Each `health report` appends its one record under the store's lock,
    so two processes reporting at once lose none."""
    store = env / "reports.jsonl"
    _two_at_once(20, "health", "report", "--vector", "1,0,2", "--store", str(store),
                 "--date", "2021-04-01")
    assert len(store.read_text().splitlines()) == 40


def test_health_report_needs_the_coupon_not_its_payload(capsys, env):
    """A report bound to a redeemed coupon is accepted only from its
    holder: the payload under junk signature bytes is refused, as the
    counter refuses it."""
    batch = _issue_batch(capsys, env, n=1)
    _vaccinate_paper(capsys, env, batch[0])
    junk = encode_qr(Coupon(payload=decode_qr(batch[0], Coupon).payload,
                            signature=bytes(range(64))))
    store = env / "reports.jsonl"
    report = ("health", "report", "--vector", "1,0,2", "--store", str(store),
              "--date", "2021-04-01", "--coupon")
    code, out, _ = run(capsys, *report, junk)
    assert code == 2 and "rejected" in out and not store.exists()
    code, out, _ = run(capsys, "pharmacy", "admit", "--coupon", junk,
                       "--issuer-pub", "@" + str(env / "issuer.key.pub"))
    assert code == 2 and out.strip() == "reject: bad-coupon"
    code, out, _ = run(capsys, *report, batch[0])
    assert code == 0 and "accepted" in out
    record = json.loads(store.read_text())
    assert record["coupon_id"] == decode_qr(batch[0], Coupon).coupon_id.hex()


def test_sim_run_smoke(capsys, env):
    out_path = env / "transcript.jsonl"
    code, out, _ = run(capsys, "sim", "run", "--scenario", "canonical",
                       "--seed", "1", "--users", "5", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines  # transcript is non-empty JSON lines
    for line in lines[:3]:
        json.loads(line)


def test_exit_codes(capsys, env, tmp_path):
    # missing file -> io error -> 1
    code, _, err = run(capsys, "user", "show", "--wallet",
                       str(tmp_path / "nope.sealed"))
    assert code == 1 and "io error" in err
    # protocol error -> 2 (bad QR text)
    code, _, err = run(
        capsys, "pharmacy", "admit", "--coupon", "CPN1:AAAA",
        "--issuer-pub", "00" * 64,
    )
    assert code == 2 and "error (" in err


def _readme_commands() -> list:
    """The argv of each `vaxcred` line in the README's sh blocks, with
    continuation lines joined and redirections and `&` dropped; a line
    that elides arguments with `...` is skipped."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = []
    for line in lines.splitlines():
        if not line.lstrip().startswith("vaxcred ") or "..." in line:
            continue
        argv, words = [], shlex.split(line, comments=True)[1:]
        while words:
            word = words.pop(0)
            if word in (">", ">>", "<", "2>"):
                words.pop(0)  # the redirection's target
            elif word != "&":
                argv.append(word)
        commands.append(argv)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "issuer", "distributor", "pharmacy", "user", "venue", "health", "sim"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: vaxcred {' '.join(argv)}")
