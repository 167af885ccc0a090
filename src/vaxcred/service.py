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

The server closes a connection that sends no frame for _IDLE_TIMEOUT
seconds and keeps at most _MAX_CONNECTIONS connections. At the cap, a new
connection takes the place of the one idle longest, whose client re-sends
on its next request; only when every connection is serving a request is
the new one closed before any frame is read. The server closes its live
connections when it is closed.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time

from . import canonical, errors
from .credentials import BadgeInfo, StatusPayload
from .errors import CanonicalError, ServiceUnreachableError, VaxError
from .vaccination import BadgeIssuer, signing_request

_MAX_FRAME = 1 << 20  # 1 MiB is far beyond any legitimate request
_IDLE_TIMEOUT = 60.0  # seconds a server connection may wait for its next frame
# connections kept, each with its handler thread; a round number, not
# sized from a measured count of pharmacy counters
_MAX_CONNECTIONS = 32


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


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
        obj = canonical.decode(data)
        if not isinstance(obj, dict) or set(obj) != {"badge", "req", "status"}:
            raise CanonicalError("malformed signing request")
        badge_info = BadgeInfo.parse(obj["badge"])
        status_payload = StatusPayload.parse(obj["status"])
        badge_bytes, status_bytes = badge_info.to_bytes(), status_payload.to_bytes()
        request, digest = signing_request(badge_bytes, status_bytes)
        if digest != obj["req"]:
            raise CanonicalError("request digest mismatch")
        sig_badge, sig_status = issuer._sign_request(
            badge_info, status_payload, badge_bytes, status_bytes, request, digest
        )
    except VaxError as exc:
        return canonical.encode({"error": exc.code, "ok": False})
    except Exception:
        return canonical.encode({"error": "internal", "ok": False})
    return canonical.encode({"ok": True, "sb": sig_badge, "ss": sig_status})


class SigningServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, issuer: BadgeIssuer):
        self.issuer = issuer
        # live connection -> when it last went idle (monotonic), or None
        # while it serves a request
        self._live = {}
        self._live_lock = threading.Lock()
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def verify_request(self, request, client_address) -> bool:
        """Admit a connection. At _MAX_CONNECTIONS, close the one idle
        longest to make room; if every one is serving a request, refuse
        the new one, which is then closed unread."""
        with self._live_lock:
            if len(self._live) >= _MAX_CONNECTIONS:
                idle = [sock for sock, since in self._live.items() if since is not None]
                if not idle:
                    return False
                oldest = min(idle, key=self._live.__getitem__)
                del self._live[oldest]
                _wake(oldest)
            self._live[request] = time.monotonic()
            return True

    def _begin(self, request) -> bool:
        """Mark a connection busy; False if it was closed to make room."""
        with self._live_lock:
            if request not in self._live:
                return False
            self._live[request] = None
            return True

    def _end(self, request) -> None:
        with self._live_lock:
            self._live[request] = time.monotonic()

    def shutdown_request(self, request) -> None:
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener and every live connection, then wait for the
        handler threads. Call after shutdown()."""
        with self._live_lock:
            for sock in self._live:
                _wake(sock)
        super().server_close()


def _wake(sock: socket.socket) -> None:
    """End a server connection; its handler, blocked in recv, sees EOF."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer is already gone


class _Handler(socketserver.StreamRequestHandler):
    timeout = _IDLE_TIMEOUT  # setup() puts it on the socket as the read timeout

    def handle(self):
        server = self.server
        try:
            while True:
                data = _recv_frame(self.rfile)
                if not server._begin(self.request):
                    return  # closed to make room; the client re-sends
                try:
                    _send_frame(self.request, handle_request_bytes(server.issuer, data))
                finally:
                    server._end(self.request)
        except (OSError, CanonicalError):
            # the client went away, idled out or sent an oversized frame,
            # or the server is closing
            return


def serve(issuer: BadgeIssuer, host: str = "127.0.0.1", port: int = 0) -> SigningServer:
    """Start a signing server on a background thread; caller shuts it down."""
    server = SigningServer((host, port), issuer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class SigningClient:
    """Drop-in `signer` for PharmacySession that talks to a remote issuer
    over one kept connection; close() releases it."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = self._rfile = None
        self._lock = threading.Lock()  # one request at a time on the connection

    def sign_badge_request(self, badge_info: BadgeInfo, status_payload: StatusPayload):
        request = encode_request(badge_info, status_payload)
        with self._lock:
            response = self._exchange(request)
        obj = canonical.decode(response)
        if not isinstance(obj, dict) or "ok" not in obj:
            raise CanonicalError("malformed signing response")
        if obj["ok"] is True:
            if set(obj) != {"ok", "sb", "ss"}:
                raise CanonicalError("malformed signing response")
            return obj["sb"], obj["ss"]
        if set(obj) != {"error", "ok"}:
            raise CanonicalError("malformed signing response")
        raise errors.error_from_code(obj["error"])

    def _exchange(self, request: bytes) -> bytes:
        """Send one frame and read the reply. A failure after a connection
        is open, reused or new, re-sends the frame once on a new one.
        ServiceUnreachableError when a connect or that re-send fails."""
        resend = True
        while True:
            try:
                if self._sock is None:
                    self._sock = socket.create_connection((self.host, self.port), self.timeout)
                    self._rfile = self._sock.makefile("rb")
                _send_frame(self._sock, request)
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
