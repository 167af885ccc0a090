"""The only module that writes, fsyncs, renames, truncates or locks a file.

A ``Journal`` appends JSON lines under the file's ``flock``; ``replace``
swaps a whole file in by rename; ``create`` does so only if none exists.
After a crash a replaced or created file is the old one or the new one,
and a journal holds every acknowledged record plus at most a torn last
line, which the next handle to lock it cuts. Each rename, and each new
journal, is followed by an fsync of its directory.
"""

from __future__ import annotations

import contextlib
import fcntl
import io
import json
import os
import tempfile

from .errors import CanonicalError


def dump_lines(records) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


def json_lines(data: bytes):
    """The value on each non-blank line of ``data``, parsed as iterated."""
    for number, line in enumerate(io.BytesIO(data), 1):
        if line.strip():
            try:
                yield json.loads(line)
            except ValueError:
                raise CanonicalError(f"corrupt JSON line {number}") from None


def _write(fh, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[fh.write(view):]
    fh.flush()
    os.fsync(fh.fileno())


def _sync_dir(path) -> None:
    fd = os.open(os.path.dirname(os.fspath(path)) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextlib.contextmanager
def _staged(path, data: bytes):
    """A fsynced temporary file (mode 0600) beside ``path`` holding ``data``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.fspath(path)) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            _write(fh, data)
        yield tmp
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    _sync_dir(path)


def replace(path, data: bytes) -> None:
    with _staged(path, data) as tmp:
        os.replace(tmp, path)


def create(path, data: bytes) -> None:
    """``replace``, but FileExistsError if ``path`` exists; never names a partial file."""
    with _staged(path, data) as tmp:
        os.link(tmp, path)


class Journal:
    """A JSON-lines file shared across processes; use it only inside ``locked()``."""

    def __init__(self, path):
        self.path = os.fspath(path)
        created = not os.path.exists(self.path)
        self._open()
        if created:
            _sync_dir(self.path)

    def _open(self) -> None:
        self._fh = open(self.path, "a+b", buffering=0)
        self._opened = os.fstat(self._fh.fileno())  # to tell when the path is replaced
        self._offset = 0  # bytes of whole records this handle has read

    @contextlib.contextmanager
    def locked(self):
        """Hold the exclusive lock, yielding the records appended since this
        handle last looked, parsed as iterated: all of them at first, and
        all again once the file was replaced. A torn last line is cut."""
        fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        try:
            while not os.path.samestat(self._opened, st := os.stat(self.path)):
                self._fh.close()  # replaced: lock the file now at the path
                self._open()
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
            data = b""
            if st.st_size > self._offset:  # spares the dose path two syscalls
                self._fh.seek(self._offset)
                data = self._fh.read()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                os.ftruncate(self._fh.fileno(), self._offset + complete)
            self._offset += complete
            yield json_lines(data[:complete])
        finally:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)

    def append(self, records) -> None:
        """One write and one fsync; a failed append is cut off again, so
        no record of it is ever read as acknowledged."""
        data = dump_lines(records)
        try:
            _write(self._fh, data)
        except BaseException:
            os.ftruncate(self._fh.fileno(), self._offset)
            raise
        self._offset += len(data)

    def replace(self, records) -> None:
        """Every handle reads ``records`` afresh at its next ``locked()``."""
        replace(self.path, dump_lines(records))

    def close(self) -> None:
        self._fh.close()
