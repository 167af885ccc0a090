import random

import pytest

from vaxcred import crypto
from vaxcred.crypto import generate_keypair
from vaxcred.registry import Registry


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture(scope="session")
def issuer_pair():
    return generate_keypair(random.Random(1))


@pytest.fixture
def issuer(issuer_pair):
    return issuer_pair[0]


@pytest.fixture
def issuer_key(issuer_pair):
    return issuer_pair[1]


@pytest.fixture
def registry():
    with Registry() as reg:
        yield reg


@pytest.fixture
def ed25519_verifies(monkeypatch):
    """A list that grows by one at each Ed25519 verify ``crypto.verify``
    makes, which starts from an empty memory of verified triples."""
    calls = []
    real = crypto.Ed25519PublicKey

    class CountedKey:
        def __init__(self, data):
            self._key = real.from_public_bytes(data)

        @classmethod
        def from_public_bytes(cls, data):
            return cls(data)

        def verify(self, sig, msg):
            calls.append(1)
            self._key.verify(sig, msg)

    monkeypatch.setattr(crypto, "_verified", set())
    monkeypatch.setattr(crypto, "Ed25519PublicKey", CountedKey)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::", 1)[1]
                number = name.split("_")[2]
                label = name.split("_", 3)[3]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((int(number), f"criterion {int(number):2d} [{label}]: {verdict}"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
