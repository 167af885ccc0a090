"""Remote signing service: length-prefixed frames over TCP.

The pharmacy sends one frame per request — the canonical encoding of
{"badge": ..., "req": digest, "status": ...} — and reads one response
frame back, either signatures or a typed error code.

A client keeps one connection and sends its requests on it in turn. When
a send or receive fails on a connection, reused or new, the client
re-sends the identical frame once on a new connection: the issuer
recognizes the repeated digest as a retry, so the registry moves at most
once and the signatures are the same. A failed connect, or a failed
re-send, surfaces as ServiceUnreachableError.

The server is one selector loop on one thread. A connection holds its
unread bytes and a deadline: its next whole frame must arrive within
_IDLE_TIMEOUT of its connect or last reply, which closes idle and
byte-dripping peers alike. Each frame gets one non-blocking send; a peer
that does not take it all is closed. At _MAX_CONNECTIONS, a new
connection replaces the one whose deadline is nearest, whose client re-sends.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time

from . import canonical, errors
from .credentials import BadgeInfo, StatusPayload
from .errors import CanonicalError, ServiceUnreachableError, VaxError
from .vaccination import BadgeIssuer, signing_request

_MAX_FRAME = 1 << 16  # 64 KiB; a signing request is about 0.5 KiB
_IDLE_TIMEOUT = 60.0  # seconds a server connection has for its next whole frame
_CLIENT_TIMEOUT = 5.0  # seconds a client waits on a connect, a send or a reply
_MAX_CONNECTIONS = 256  # so at most 16 MiB of unread frames are held


def _frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _recv_exact(rfile, n: int) -> bytes:
    data = rfile.read(n)
    if len(data) < n:
        raise ConnectionError("peer closed mid-frame")
    return data


def _recv_frame(rfile) -> bytes:
    """One frame from a buffered reader over the socket, which takes the
    header and a small body in one recv."""
    (length,) = struct.unpack(">I", _recv_exact(rfile, 4))
    if length > _MAX_FRAME:
        raise CanonicalError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(rfile, length)


def encode_request(badge_info: BadgeInfo, status_payload: StatusPayload) -> bytes:
    badge_bytes, status_bytes = badge_info.to_bytes(), status_payload.to_bytes()
    _, digest = signing_request(badge_bytes, status_bytes)
    return canonical.encode(
        {
            "badge": canonical.Encoded(badge_bytes),
            "req": digest,
            "status": canonical.Encoded(status_bytes),
        }
    )


def handle_request_bytes(issuer: BadgeIssuer, data: bytes) -> bytes:
    """Pure request -> response mapping, shared by the server and tests."""
    try:
        badge, req, status = canonical.fields(
            canonical.decode(data), ("badge", "req", "status"), "signing request"
        )
        sig_badge, sig_status = issuer.sign_badge_request(
            BadgeInfo.parse(badge), StatusPayload.parse(status), req
        )
    except VaxError as exc:
        return canonical.encode({"error": exc.code, "ok": False})
    except Exception:
        return canonical.encode({"error": "internal", "ok": False})
    return canonical.encode({"ok": True, "sb": sig_badge, "ss": sig_status})


class SigningServer:
    """Serves signing requests from one selector loop on a thread it starts."""

    def __init__(self, address, issuer: BadgeIssuer):
        self.issuer = issuer
        self._listener = socket.create_server(address)
        self.server_address = self._listener.getsockname()
        self.port = self.server_address[1]
        self._wake_r, self._wake_w = socket.socketpair()  # shutdown() writes to it
        self._live = {}  # connection -> [unread bytes, deadline (monotonic)]
        self._selector = selectors.DefaultSelector()
        for sock in (self._listener, self._wake_r):
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            deadline = min((d for _, d in self._live.values()), default=None)
            timeout = None if deadline is None else deadline - time.monotonic()
            for key, _ in self._selector.select(timeout):
                if key.fileobj is self._wake_r:
                    return
                if key.fileobj is self._listener:
                    self._accept()
                elif key.fileobj in self._live:  # not closed earlier in this round
                    self._read(key.fileobj)
            for sock in [s for s, (_, d) in self._live.items() if d <= time.monotonic()]:
                self._close(sock)

    def _accept(self) -> None:
        """Admit a connection, at the cap in place of the one whose deadline is nearest."""
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return  # the peer left before it was accepted
        if len(self._live) >= _MAX_CONNECTIONS:
            self._close(min(self._live, key=lambda s: self._live[s][1]))
        sock.setblocking(False)
        self._live[sock] = [bytearray(), time.monotonic() + _IDLE_TIMEOUT]
        self._selector.register(sock, selectors.EVENT_READ)

    def _read(self, sock: socket.socket) -> None:
        """Take what the peer sent and answer each whole frame in it."""
        buf = self._live[sock][0]
        try:
            chunk = sock.recv(_MAX_FRAME + 4 - len(buf))  # buf stays within one largest frame
            if not chunk:
                raise ConnectionError("peer closed")
            buf += chunk
            while len(buf) >= 4:
                (length,) = struct.unpack_from(">I", buf)
                if length > _MAX_FRAME:
                    raise ConnectionError(f"frame of {length} bytes exceeds limit")
                if len(buf) < 4 + length:
                    return
                reply = _frame(handle_request_bytes(self.issuer, bytes(buf[4:4 + length])))
                del buf[:4 + length]
                if sock.send(reply) < len(reply):
                    raise ConnectionError("peer is not reading its replies")
                self._live[sock][1] = time.monotonic() + _IDLE_TIMEOUT
        except OSError:
            self._close(sock)

    def _close(self, sock: socket.socket) -> None:
        del self._live[sock]
        self._selector.unregister(sock)
        sock.close()

    def shutdown(self) -> None:
        """Stop the loop and wait for it to return."""
        self._wake_w.send(b"\0")
        self._thread.join()

    def server_close(self) -> None:
        """Close the listener and every live connection. Call after shutdown()."""
        self._selector.close()
        for sock in [*self._live, self._listener, self._wake_r, self._wake_w]:
            sock.close()
        self._live.clear()


def serve(issuer: BadgeIssuer, host: str = "127.0.0.1", port: int = 0) -> SigningServer:
    """Start a signing server on a background thread; caller shuts it down."""
    return SigningServer((host, port), issuer)


class SigningClient:
    """Drop-in `signer` for PharmacySession that talks to a remote issuer
    over one kept connection; close() releases it."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._sock = self._rfile = None
        self._lock = threading.Lock()  # one request at a time on the connection

    def sign_badge_request(self, badge_info: BadgeInfo, status_payload: StatusPayload):
        request = encode_request(badge_info, status_payload)
        with self._lock:
            response = self._exchange(request)
        obj = canonical.decode(response)
        if isinstance(obj, dict) and obj.get("ok") is True:
            _, sig_badge, sig_status = canonical.fields(obj, ("ok", "sb", "ss"), "signing response")
            return sig_badge, sig_status
        code, _ = canonical.fields(obj, ("error", "ok"), "signing response")
        raise errors.error_from_code(code)

    def _exchange(self, request: bytes) -> bytes:
        """Send one frame and read the reply. A failure after a connection
        is open, reused or new, re-sends the frame once on a new one.
        ServiceUnreachableError when a connect or that re-send fails."""
        resend = True
        while True:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection((self.host, self.port), _CLIENT_TIMEOUT)
                    self._rfile = self._sock.makefile("rb")
                self._sock.sendall(_frame(request))
                return _recv_frame(self._rfile)
            except OSError as exc:
                connected = self._sock is not None
                self._drop()
                if not (connected and resend):
                    raise ServiceUnreachableError(f"signing service: {exc}") from exc
                resend = False
            except BaseException:
                self._drop()  # the stream may be left mid-frame
                raise

    def _drop(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None

    def close(self) -> None:
        """Close the kept connection; a later request opens a new one."""
        with self._lock:
            self._drop()
