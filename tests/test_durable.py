"""Durable files: one module writes them, and a crash at any step inside it
leaves every file readable, old or new.

The crash harness follows ALICE (Pillai et al., "All File Systems Are Not
Created Equal", OSDI 2014) at process level: a child runs one write path
and ``os._exit``s at its k-th write, fsync, rename, link or truncate inside
``durable``, for k = 1, 2, ... until a child finishes; a crash at a write
first lets half its bytes through. The parent then reopens what the child
left and checks it. Children run one after another.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxcred import durable
from vaxcred.coupons import issue_coupon_batch
from vaxcred.crypto import KeyHandle, generate_keypair
from vaxcred.errors import AlreadyUsedError, CanonicalError, DismantledError
from vaxcred.qr import encode_qr
from vaxcred.registry import Registry, Stage
from vaxcred.wallet import load_wallet, save_wallet, wallet_init_paper

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PASSPHRASE = "marmot circus tundra"

# -- one module writes ---------------------------------------------------------

_FILE_CALLS = {("os", name) for name in (
    "fsync", "replace", "rename", "ftruncate", "truncate", "open", "fdopen", "link",
    "write", "unlink", "remove",
)} | {("fcntl", "flock"), ("fcntl", "lockf")}


def _writes_files(tree) -> list:
    """What in ``tree`` writes, syncs, renames, truncates or locks a file."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [a.name for a in node.names] + [module]
            found += [n for n in names if n.split(".")[0] in ("fcntl", "tempfile", "shutil")]
            found += [a.name for a in node.names if (module, a.name) in _FILE_CALLS]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (node.value.id, node.attr) in _FILE_CALLS:
                found.append(f"{node.value.id}.{node.attr}")
            elif node.attr in ("write_text", "write_bytes"):
                found.append(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+"):
                found.append("open for writing")
    return found


def test_only_durable_writes_files():
    offenders = {}
    for path in sorted((SRC / "vaxcred").glob("*.py")):
        if path.stem != "durable":
            found = _writes_files(ast.parse(path.read_text()))
            if found:
                offenders[path.stem] = found
    assert offenders == {}
    assert _writes_files(ast.parse((SRC / "vaxcred" / "durable.py").read_text()))


def test_the_scan_sees_each_kind_of_write():
    for source in ("import fcntl", "import tempfile", "from os import fsync",
                   "os.replace(a, b)", "os.open(p, 0)", "fcntl.flock(fd, 1)",
                   "open(p, 'a')", "open(p, mode='wb')", "open(p, m)", "p.write_text('x')"):
        assert _writes_files(ast.parse(source)), source
    assert not _writes_files(ast.parse("open(p, 'rb'); open(p)"))


# -- crash injection -------------------------------------------------------------

CRASHED = 86

_CHILD = """
import os, sys
from vaxcred import durable

crash_at, steps = int(sys.argv[1]), [0]

def hook(real, torn=False):
    def step(*args):
        steps[0] += 1
        if steps[0] == crash_at:
            if torn:
                fh, data = args
                fh.write(bytes(data)[: len(data) // 2])
                fh.flush()
            os._exit(%d)
        return real(*args)
    return step

durable._write = hook(durable._write, torn=True)
for name in ("fsync", "replace", "link", "ftruncate"):
    setattr(os, name, hook(getattr(os, name)))
exec(sys.argv[2])
print("ack", flush=True)
""" % CRASHED


def _crash_every_step(tmp_path, setup, action, check):
    """Run ``action`` (Python source) in a child crashing at step k, for
    each k until a child completes; ``setup(dir)`` prepares a fresh
    directory first, and ``check(dir, acked)`` judges what is left."""
    k = 0
    while True:
        k += 1
        where = tmp_path / f"k{k}"
        where.mkdir()
        setup(where)
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(k), action], cwd=where,
            env={**os.environ, "PYTHONPATH": str(SRC), "VAXCRED_PASSPHRASE": PASSPHRASE},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode in (0, CRASHED), done.stderr
        check(where, "ack" in done.stdout)
        if done.returncode == 0:
            return k


def _coupons(n):
    return [(hashlib.sha256(f"coupon-{i}".encode()).digest(),
             hashlib.sha256(f"signature-{i}".encode()).digest()) for i in range(n)]


def _registry_with(where, n=2, torn=False):
    with Registry(where / "reg.log") as reg:
        reg.register_many(_coupons(n))
    if torn:
        with open(where / "reg.log", "ab") as fh:
            fh.write(b'{"cid": "dead')


def test_crash_during_a_dose(tmp_path):
    """An acknowledged dose survives, and the coupon has one winner: a
    rival request after the crash moves it only if the dose was lost."""
    cid = _coupons(1)[0][0]

    def check(where, acked):
        with Registry(where / "reg.log") as reg:
            stage = reg.check(cid).stage
            assert stage is Stage.DOSE1 or (stage is Stage.UNUSED and not acked)
            if stage is Stage.DOSE1:
                with pytest.raises(AlreadyUsedError):
                    reg.mark_used(cid, 1, request_digest=b"\x02" * 32)
            else:
                assert reg.mark_used(cid, 1, request_digest=b"\x02" * 32)
        lines = (where / "reg.log").read_bytes().splitlines()
        assert sum(b'"dose1"' in line for line in lines) == 1

    steps = _crash_every_step(
        tmp_path, lambda where: _registry_with(where, torn=True),
        "from vaxcred.registry import Registry\n"
        "import hashlib\n"
        "with Registry('reg.log') as reg:\n"
        "    reg.mark_used(hashlib.sha256(b'coupon-0').digest(), 1,"
        " request_digest=b'\\x01' * 32)",
        check,
    )
    assert steps == 4  # cut the torn tail, write, fsync, done


def test_crash_during_a_batch(tmp_path):
    """A batch is registered whole or not at all, and whole once
    acknowledged: a crash in its one write leaves none of it."""
    fresh = [cid for cid, _ in _coupons(5)[2:]]

    def check(where, acked):
        with Registry(where / "reg.log") as reg:
            known = [reg.known(cid) for cid in fresh]
            assert all(known) or (not any(known) and not acked)
            assert len(reg) == 2 + sum(known)

    _crash_every_step(
        tmp_path, _registry_with,
        "import hashlib\n"
        "from vaxcred.registry import Registry\n"
        "coupons = [(hashlib.sha256(f'coupon-{i}'.encode()).digest(),"
        " hashlib.sha256(f'signature-{i}'.encode()).digest()) for i in range(2, 5)]\n"
        "with Registry('reg.log') as reg:\n"
        "    reg.register_many(coupons)",
        check,
    )


def test_crash_during_dismantle(tmp_path):
    """The log is the old one, whole, or the marker alone; a dismantled
    registry stays dismantled."""
    cid = _coupons(1)[0][0]

    def check(where, acked):
        with Registry(where / "reg.log") as reg:
            if not reg.dismantled:
                assert not acked and reg.check(cid).stage is Stage.UNUSED and len(reg) == 2
                return
            with pytest.raises(DismantledError):
                reg.mark_used(cid, 1)
        assert cid.hex().encode() not in (where / "reg.log").read_bytes()
        with Registry(where / "reg.log") as again:
            assert again.dismantled

    _crash_every_step(
        tmp_path, _registry_with,
        "from vaxcred.registry import Registry\n"
        "with Registry('reg.log') as reg:\n"
        "    reg.dismantle(administrative=True)",
        check,
    )


def test_crash_during_keygen(tmp_path):
    """The key file is absent or the whole new key, never a partial one;
    the public half, once there, is whole too."""

    def check(where, acked):
        key, pub = where / "issuer.key", where / "issuer.key.pub"
        if not key.exists():
            assert not acked and not pub.exists()
            return
        handle = KeyHandle.unseal(key.read_bytes(), PASSPHRASE)
        if pub.exists() or acked:
            assert pub.read_text() == handle.verifying_key.hex() + "\n"

    steps = _crash_every_step(
        tmp_path, lambda where: None,
        "from vaxcred import cli\n"
        "assert cli.main(['issuer', 'keygen', '--key', 'issuer.key']) == 0",
        check,
    )
    assert steps == 9  # write, fsync, link, directory fsync, for each half


def test_crash_during_a_wallet_save(tmp_path):
    """The wallet file is the old wallet or the new one."""
    coupon = issue_coupon_batch(generate_keypair()[0], 1, "02139", "healthcare")[0]

    def setup(where):
        save_wallet(wallet_init_paper(), where / "w.sealed", PASSPHRASE)
        (where / "coupon.txt").write_text(encode_qr(coupon))

    def check(where, acked):
        held = load_wallet(where / "w.sealed", PASSPHRASE).coupon
        assert held == coupon or (held is None and not acked)

    _crash_every_step(
        tmp_path, setup,
        "from vaxcred import cli\n"
        "assert cli.main(['user', 'init', '--wallet', 'w.sealed', '--variant', 'paper',"
        " '--coupon', '@coupon.txt']) == 0",
        check,
    )


def test_crash_during_a_report(tmp_path):
    """The store keeps every earlier report, and an acknowledged one."""
    earlier = [{"timestamp": "2021-04-01", "vector": [1]}] * 2

    def setup(where):
        (where / "reports.jsonl").write_bytes(durable.dump_lines(earlier))
        Registry(where / "reg.log").close()

    def check(where, acked):
        with contextlib.closing(durable.Journal(where / "reports.jsonl")) as store, \
                store.locked() as read:
            records = list(read)
        new = {"timestamp": "2021-04-02", "vector": [3, 1]}
        assert records == earlier + [new] or (records == earlier and not acked)

    _crash_every_step(
        tmp_path, setup,
        "from vaxcred import cli\n"
        "assert cli.main(['health', 'report', '--vector', '3,1', '--store', 'reports.jsonl',"
        " '--registry', 'reg.log', '--date', '2021-04-02']) == 0",
        check,
    )


def test_a_line_nested_too_deep_for_the_parser_is_corrupt():
    """``json`` raises RecursionError, not ValueError, on deep nesting, and
    it escaped every reader of a JSON-lines file as an internal error."""
    with pytest.raises(CanonicalError):
        list(durable.json_lines([b'{"a": 1}\n', b"[" * 100_000 + b"\n"]))


# -- reading a journal a chunk at a time -------------------------------------------

CHUNK = durable.CHUNK


def _line(n: int, length: int) -> bytes:
    """A JSON line of exactly ``length`` bytes, its newline included."""
    pad = length - 1 - len(json.dumps({"n": n, "pad": ""}))
    return json.dumps({"n": n, "pad": "x" * pad}).encode() + b"\n"


def _read_journal(path) -> list:
    with contextlib.closing(durable.Journal(path)) as journal, journal.locked() as records:
        return list(records)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_a_line_ending_at_a_chunk_boundary(tmp_path, shift):
    """The first line ends a byte before, exactly at or a byte after the
    end of the first chunk."""
    data = _line(0, CHUNK + shift) + _line(1, 40) + _line(2, CHUNK)
    (tmp_path / "j").write_bytes(data)
    assert _read_journal(tmp_path / "j") == list(durable.json_lines(io.BytesIO(data)))
    assert [r["n"] for r in _read_journal(tmp_path / "j")] == [0, 1, 2]


def test_a_line_longer_than_two_chunks(tmp_path):
    data = _line(0, 40) + _line(1, 2 * CHUNK + 99) + _line(2, 40)
    (tmp_path / "j").write_bytes(data)
    records = _read_journal(tmp_path / "j")
    assert records == list(durable.json_lines(io.BytesIO(data)))
    assert [r["n"] for r in records] == [0, 1, 2] and len(records[1]["pad"]) > 2 * CHUNK


def test_a_torn_tail_longer_than_a_chunk_is_cut_and_not_replayed(tmp_path):
    whole = _line(0, 40) + _line(1, CHUNK + 1)
    (tmp_path / "j").write_bytes(whole + _line(2, 2 * CHUNK + 9)[:-2])
    assert [r["n"] for r in _read_journal(tmp_path / "j")] == [0, 1]
    assert (tmp_path / "j").read_bytes() == whole
    with contextlib.closing(durable.Journal(tmp_path / "j")) as journal:
        with journal.locked():
            journal.append([{"n": 3}])
    assert [r["n"] for r in _read_journal(tmp_path / "j")] == [0, 1, 3]


def test_blank_lines_are_skipped_but_numbered(tmp_path):
    """A corrupt line is named by its number among all the lines read,
    blank ones included, however the chunks fall."""
    data = b"\n" + _line(0, 40) + b"  \n\r\n" + _line(1, CHUNK + 3) + b"\n"
    (tmp_path / "j").write_bytes(data)
    assert [r["n"] for r in _read_journal(tmp_path / "j")] == [0, 1]
    (tmp_path / "j").write_bytes(data + b"{corrupt\n")
    with pytest.raises(CanonicalError, match="^corrupt JSON line 7$"):
        _read_journal(tmp_path / "j")


def test_a_corrupt_line_is_numbered_from_where_the_handle_last_read(tmp_path):
    """The number counts the lines appended since the handle last looked,
    as it did when the unread tail was read whole."""
    path = tmp_path / "j"
    path.write_bytes(b"".join(_line(n, 90) for n in range(2000)))  # about three chunks
    journal = durable.Journal(path)
    try:
        with journal.locked() as records:
            assert len(list(records)) == 2000
        with open(path, "ab") as fh:
            fh.write(b"".join(_line(n, 90) for n in range(2000, 2999)) + b"{corrupt\n")
        with pytest.raises(CanonicalError, match="^corrupt JSON line 1000$"):
            with journal.locked() as records:
                list(records)
    finally:
        journal.close()


@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.sampled_from([b"\n", b"a", b"bc", b"{}"]), max_size=40).map(b"".join),
       chunk=st.integers(1, 9))
def test_chunked_reads_split_as_a_whole_read_does(data, chunk):
    """For any chunk size, the lines read a chunk at a time are those of
    the whole range, and the last whole line ends at the last newline."""
    with tempfile.TemporaryFile() as fh, _chunk_of(chunk):
        fh.write(data)
        fh.flush()
        end = data.rfind(b"\n") + 1
        assert durable._whole_lines_end(fh.fileno(), 0, len(data)) == end
        assert list(durable._lines(fh.fileno(), 0, end)) == data[:end].split(b"\n")[:-1]


@contextlib.contextmanager
def _chunk_of(size):
    real, durable.CHUNK = durable.CHUNK, size
    try:
        yield
    finally:
        durable.CHUNK = real
