"""Checks on the benchmark itself: each workload runs correctly, and no
byte it writes (result files, span traces, printed lines) carries holder
data: identity field values, coupon ids, holder keys, salts or request
digests.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json

import pytest

import run


def _forms(secret: bytes):
    yield secret
    yield secret.hex().encode()
    yield secret.hex().upper().encode()


def leaks(blob: bytes, secrets) -> list:
    """Every secret found in ``blob``, raw or in hex (either case)."""
    by_length = {}
    for secret in secrets:
        for form in _forms(secret):
            by_length.setdefault(len(form), {})[form] = secret
    found = []
    for length, wanted in by_length.items():
        windows = {blob[i : i + length] for i in range(len(blob) - length + 1)}
        found += [wanted[form] for form in windows & wanted.keys()]
    return found


def test_scan_finds_a_planted_secret():
    secret = bytes(range(7, 39))
    assert leaks(b'{"x": "' + secret.hex().encode() + b'"}', [secret]) == [secret]
    assert leaks(b"Holder 12", [b"Holder 1"]) == [b"Holder 1"]
    assert leaks(b"nothing here", [secret, b"Holder 1"]) == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["issue", "venue", "lifecycle"])
def test_outputs_carry_no_holder_data(workload, trace, tmp_path):
    printed = []
    bench, line = run.execute(workload, seed=11, seconds=1, trace=trace,
                              out_dir=tmp_path, emit=printed.append)
    printed.append(json.dumps(line))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert any(p.name.startswith("result-") for p in files)
    if trace:
        assert any(p.name.startswith("spans-") for p in files)
    blob = b"\n".join([p.read_bytes() for p in files] + ["\n".join(printed).encode()])
    secrets = bench.secrets()
    assert len(secrets) > 100  # the scan is not vacuous
    assert leaks(blob, secrets) == []
