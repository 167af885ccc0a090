"""Remote signing service: length-prefixed frames over TCP.

The pharmacy sends one frame per request — the canonical encoding of
{"badge": ..., "req": digest, "status": ...} — and reads one response
frame back, either signatures or a typed error code. Connection failures
surface as ServiceUnreachableError on the client with no registry effect;
a retry of the identical request is safe because the issuer recognizes
the digest.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading

from . import canonical, errors
from .credentials import BadgeInfo, StatusPayload
from .errors import CanonicalError, ServiceUnreachableError, VaxError
from .vaccination import BadgeIssuer, signing_request

_MAX_FRAME = 1 << 20  # 1 MiB is far beyond any legitimate request


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if length > _MAX_FRAME:
        raise CanonicalError(f"frame of {length} bytes exceeds limit")
    return _recv_exact(sock, length)


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
        _, digest = signing_request(badge_info.to_bytes(), status_payload.to_bytes())
        if digest != obj["req"]:
            raise CanonicalError("request digest mismatch")
        sig_badge, sig_status = issuer.sign_badge_request(badge_info, status_payload)
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
        super().__init__(address, _Handler)

    @property
    def port(self) -> int:
        return self.server_address[1]


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            while True:
                data = _recv_frame(self.request)
                _send_frame(self.request, handle_request_bytes(self.server.issuer, data))
        except (ConnectionError, OSError):
            return  # client went away; nothing to clean up


def serve(issuer: BadgeIssuer, host: str = "127.0.0.1", port: int = 0) -> SigningServer:
    """Start a signing server on a background thread; caller shuts it down."""
    server = SigningServer((host, port), issuer)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class SigningClient:
    """Drop-in `signer` for PharmacySession that talks to a remote issuer."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def sign_badge_request(self, badge_info: BadgeInfo, status_payload: StatusPayload):
        request = encode_request(badge_info, status_payload)
        try:
            with socket.create_connection((self.host, self.port), self.timeout) as sock:
                _send_frame(sock, request)
                response = _recv_frame(sock)
        except OSError as exc:
            raise ServiceUnreachableError(f"signing service: {exc}") from exc
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
