"""The only module that writes, fsyncs, renames, truncates or locks a file.

A ``Journal`` appends JSON lines under the file's ``flock``; ``replace``
swaps a whole file in by rename; ``create`` does so only if none exists.
After a crash a replaced or created file is the old one or the new one,
and a journal holds every acknowledged record plus at most a torn last
line, which the next handle to lock it cuts. Each rename, and each new
journal, is followed by an fsync of its directory. A journal is read
``CHUNK`` bytes at a time, so reading one costs memory in proportion to
its longest line, not to the file.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile

from .errors import CanonicalError


def dump_lines(records) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()


CHUNK = 1 << 16  # bytes per read of a journal


def json_lines(lines):
    """The value on each non-blank line of ``lines``, an iterable of byte
    lines such as a binary file, parsed as iterated. ``line`` is rebound at
    each step, so a long line is held at most twice at once rather than as
    bytes, text and value together."""
    number = 0
    for line in lines:
        number += 1
        if not line.strip():
            continue
        try:
            line = line.decode(json.detect_encoding(line), "surrogatepass")
            line = json.loads(line)
        except (ValueError, RecursionError):  # nesting too deep for the parser
            raise CanonicalError(f"corrupt JSON line {number}") from None
        yield line
        del line  # let the value go before the next line is read


def _lines(fd: int, start: int, end: int):
    """The lines of ``fd`` from ``start`` to ``end``, which ends one, without
    their newlines, read ``CHUNK`` bytes at a time. A line longer than a
    chunk is joined once, and each is let go of once yielded."""
    begun = []  # the pieces of a line that began in an earlier chunk
    while start < end:
        chunk = os.pread(fd, min(CHUNK, end - start), start)
        if not chunk:
            raise CanonicalError("journal ended before the record it was read to")
        start += len(chunk)
        lines = chunk.split(b"\n")
        if len(lines) > 1 and begun:
            begun.append(lines[0])
            lines[0] = b"".join(begun)
            begun.clear()
        begun.append(lines.pop())  # the start of a line this chunk does not end
        lines.reverse()
        while lines:
            yield lines.pop()


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


def _whole_lines_end(fd: int, start: int, end: int) -> int:
    """Where the last whole line between ``start`` and ``end`` ends (``start``
    if none does), read backwards from ``end`` a chunk at a time."""
    while end > start:
        at = max(start, end - CHUNK)
        newline = os.pread(fd, end - at, at).rfind(b"\n")
        if newline >= 0:
            return at + newline + 1
        end = at
    return start


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
        all again once the file was replaced. A torn last line is cut.

        The records are read from the file as iterated, and may be iterated
        after the lock is let go: they end at the last whole line there was
        under the lock, and no handle changes a journal's bytes before that
        point, even when it replaces the file."""
        fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        try:
            while not os.path.samestat(self._opened, st := os.stat(self.path)):
                self._fh.close()  # replaced: lock the file now at the path
                self._open()
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
            start = end = self._offset
            if st.st_size > start:  # spares the dose path a read
                end = _whole_lines_end(self._fh.fileno(), start, st.st_size)
                if end < st.st_size:
                    os.ftruncate(self._fh.fileno(), end)
                self._offset = end
            yield json_lines(_lines(self._fh.fileno(), start, end))
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
