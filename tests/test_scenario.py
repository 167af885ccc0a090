"""Deterministic multi-party simulation runs."""

import hashlib
import json

import pytest

from vaxcred import crypto
from vaxcred.cli import main
from vaxcred.errors import VaxError
from vaxcred.scenario import (
    ScenarioScript,
    canonical_script,
    double_spend_script,
    run_scenario,
)


def test_same_seed_same_transcript():
    script = canonical_script(8)
    a = run_scenario(script, seed=42).to_text()
    b = run_scenario(script, seed=42).to_text()
    assert a == b  # byte-identical replays


def test_canonical_transcript_bytes_are_pinned(capsys):
    """`vaxcred sim run --scenario canonical --seed 11 --users 40` prints
    the same bytes from release to release: every key, salt, signature and
    registry step of the run lands in it."""
    assert main(["sim", "run", "--scenario", "canonical", "--seed", "11",
                 "--users", "40"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == (
        "5a4b7b43bceef250318c981c1d6b9b2207bc5b327f92fa4a480017a5d60d31ac"
    )


def test_different_seed_different_transcript():
    script = canonical_script(8)
    a = run_scenario(script, seed=1).to_text()
    b = run_scenario(script, seed=2).to_text()
    assert a != b  # salts, keys, and ids all moved


def test_transcript_is_json_lines():
    log = run_scenario(canonical_script(4), seed=3)
    for line in log.to_text().splitlines():
        record = json.loads(line)
        assert {"at", "actor", "event", "ok"} <= set(record)


def test_canonical_run_is_clean():
    log = run_scenario(canonical_script(12), seed=7)
    summary = log.events[-1]
    assert summary["event"] == "summary"
    assert summary["ok"] is True
    assert summary["violations"] == []
    assert summary["rejected"] == 0
    assert all(e["ok"] for e in log.events)
    # every user saw both doses and a verification
    events = [e["event"] for e in log.events]
    assert events.count("dose1") == 12
    assert events.count("dose2") == 12
    assert events.count("verify") == 12
    assert events.count("aggregate") == 1


def test_double_spend_is_rejected_not_fatal():
    log = run_scenario(double_spend_script(), seed=5)
    summary = log.events[-1]
    assert summary["ok"] is True  # rejection is the *correct* outcome
    rejected = [e for e in log.events if not e["ok"]]
    assert len(rejected) == 1
    assert rejected[0]["reason"] == "already-used"


def test_return_world_exposes_audit_state():
    log, world = run_scenario(canonical_script(4), seed=9, return_world=True)
    assert world.signer.received_requests  # raw issuer traffic, for scans
    blob = b"".join(world.signer.received_requests)
    assert b"Holder 000" not in blob
    assert len(world.registry) == 4


def test_unknown_action_raises():
    script = ScenarioScript(name="bad", actions=(
        {"at": 0, "action": "time-travel"},
    ))
    with pytest.raises(VaxError):
        run_scenario(script, seed=0)


def test_script_validation():
    with pytest.raises(VaxError):
        ScenarioScript(name="shapeless", actions=({"no-action-key": 1},))
    with pytest.raises(VaxError):
        # actions must be time-ordered
        ScenarioScript(name="unordered", actions=(
            {"at": 5, "action": "x"}, {"at": 1, "action": "y"},
        ))


def test_summary_counts_add_up():
    log = run_scenario(canonical_script(6), seed=11)
    summary = log.summary
    assert summary["accepted"] + summary["rejected"] == len(log.events) - 1


def test_canonical_user_costs_two_verifies_and_six_and_a_half_signs(monkeypatch):
    """Floor accounting: the Ed25519 work the canonical scenario does per
    user. Coupons and second-dose badges are admitted by the registry's
    digests, so the verifies left are the venue's and the gate's. A second
    dose signs its dose-1 badge again, to match the one the registry holds."""
    counts = {"verify": 0, "sign": 0}
    verify, sign = crypto.verify, crypto.KeyHandle.sign

    def counted_verify(*args):
        counts["verify"] += 1
        return verify(*args)

    def counted_sign(handle, *args):
        counts["sign"] += 1
        return sign(handle, *args)

    monkeypatch.setattr(crypto, "verify", counted_verify)
    monkeypatch.setattr(crypto.KeyHandle, "sign", counted_sign)
    users = 20
    assert run_scenario(canonical_script(users), seed=7).summary["ok"] is True
    assert counts["verify"] == 2 * users
    assert counts["sign"] == 6.5 * users


def test_canonical_user_costs_one_and_a_half_ed25519_verifies(ed25519_verifies):
    """Of the two ``crypto.verify`` calls per user, the app holder's gate
    re-checks the status its venue check just verified, and that repeat
    is answered from memory: 30 Ed25519 verifies for 20 users."""
    users = 20
    assert run_scenario(canonical_script(users), seed=7).summary["ok"] is True
    assert len(ed25519_verifies) == 1.5 * users
