"""A loopback chat-completions stub for the remote-backend tests.

``serving`` runs a ``ChatStub`` on a loopback port, over plain HTTP or
over TLS with the self-signed certificate in the fixtures. The stub
counts what it serves, and replies from its ``script`` while that lasts;
after that, its handler class decides the reply. Each behaviour is a
small subclass of ``ChatHandler``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from bab.parsing import NO_COOP, Action, format_reply

from conftest import FIXTURE_DIR


def chat_body(text: str) -> str:
    """A chat-completions response body whose assistant text is ``text``."""
    return json.dumps({"choices": [{"message": {"content": text}}]})


class ChatStub(ThreadingHTTPServer):
    """Counts requests served, peak requests in flight and connections
    accepted, and keeps every request body in ``requests_seen``.

    ``script`` holds replies to send first, in order, each (status, body)
    or (status, body, extra headers). The other attributes set how the
    behaviours of the handler classes play out.
    """

    daemon_threads = True
    # a suite has up to 24 requests in flight, each on its own connection;
    # past the listen backlog a connection waits a second for its SYN to be
    # resent
    request_queue_size = 64

    def __init__(self, handler: type[ChatHandler], stage_id: int = 7) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.lock = threading.Lock()
        self.script: list[tuple] = []
        self.requests_seen: list[dict] = []
        self.served = 0
        self.in_flight = 0
        self.peak = 0
        self.connections = 0
        self.stage_id = stage_id  # the reply format of HashedReply
        self.delays = random.Random()
        self.delay_range = (0.001, 0.015)  # HashedReply's wait before each reply
        self.pause = 0.0  # TrickleBody's wait before each body byte
        self.at_once = 0  # the head bytes TrickleHead sends at once
        self.close_after_reply = False  # KeepAlive closes each connection

    @property
    def url(self) -> str:
        scheme = "https" if isinstance(self.socket, ssl.SSLSocket) else "http"
        return f"{scheme}://127.0.0.1:{self.server_port}"


class ChatHandler(BaseHTTPRequestHandler):
    """Replies "#Operation: #Shoot#" at once, over HTTP/1.0, so each
    connection closes after its reply."""

    server: ChatStub

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):  # noqa: N802 - http.server API
        stub = self.server
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with stub.lock:
            stub.requests_seen.append(request)
            stub.served += 1
            stub.in_flight += 1
            stub.peak = max(stub.peak, stub.in_flight)
            scripted = stub.script.pop(0) if stub.script else None
        try:
            status, body, *headers = scripted or (200, chat_body(self.text(request)))
        finally:
            with stub.lock:
                stub.in_flight -= 1
        self.send(status, body.encode("utf-8"), *headers)

    def text(self, request: dict) -> str:
        return "#Operation: #Shoot#"

    def send(self, status: int, body: bytes, headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.write_body(body)

    def write_body(self, body: bytes) -> None:
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TrickleBody(ChatHandler):
    """Sends a whole reply's headers at once, then its body one byte at a
    time, the stub's ``pause`` seconds apart."""

    def write_body(self, body: bytes) -> None:
        try:
            for i in range(len(body)):
                time.sleep(self.server.pause)
                self.wfile.write(body[i:i + 1])
        except OSError:
            pass  # the client gave up


class TrickleHead(ChatHandler):
    """Sends a 200 reply's first ``at_once`` bytes (a stub setting) at
    once, then the rest of its status line and headers one byte every
    30 ms, then its body."""

    def send(self, status: int, body: bytes, headers: dict | None = None) -> None:
        head = ("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        at_once = self.server.at_once
        try:
            self.wfile.write(head[:at_once])
            for i in range(at_once, len(head)):
                time.sleep(0.03)
                self.wfile.write(head[i:i + 1])
            self.wfile.write(body)
        except OSError:
            pass  # the client gave up


class KeepAlive(ChatHandler):
    """Over HTTP/1.1, on connections that stay open; when the stub's
    ``close_after_reply`` is set, each closes after its first reply,
    without saying so in the reply."""

    protocol_version = "HTTP/1.1"

    def send(self, status: int, body: bytes, headers: dict | None = None) -> None:
        super().send(status, body, headers)
        self.close_connection = self.server.close_after_reply


class HashedReply(ChatHandler):
    """Replies with an action picked by a hash of the user message, in
    the stub's stage's reply format, after a delay drawn from the stub's
    ``delay_range``, so that a turn's replies come back out of order."""

    def text(self, request: dict) -> str:
        user = next(m["content"] for m in request["messages"] if m["role"] == "user")
        stub = self.server
        with stub.lock:
            delay = stub.delays.uniform(*stub.delay_range)
        time.sleep(delay)
        return format_reply(stub.stage_id, self.action(user), 0, NO_COOP)

    def action(self, user: str) -> Action:
        h = int.from_bytes(hashlib.sha256(user.encode("utf-8")).digest()[:8], "big")
        return list(Action)[h % len(Action)]


class ShootingReply(HashedReply):
    """``HashedReply`` that always shoots."""

    def action(self, user: str) -> Action:
        return Action.SHOOT


class KeepAliveHashedReply(HashedReply):
    """``HashedReply`` over HTTP/1.1 connections that stay open."""

    protocol_version = "HTTP/1.1"


@contextlib.contextmanager
def serving(stub: ChatStub | type[ChatHandler], tls: bool = False):
    """Serve ``stub``, or a ``ChatStub`` built around a handler class, on a
    loopback port until the block ends; over TLS with the self-signed
    certificate in the fixtures when ``tls``. Yields the stub, whose
    ``url`` is its base URL."""
    if isinstance(stub, type):
        stub = ChatStub(stub)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(FIXTURE_DIR / "tls_cert.pem", FIXTURE_DIR / "tls_key.pem")
        # each handler thread shakes hands on its first read, not the accepting thread
        stub.socket = context.wrap_socket(stub.socket, server_side=True,
                                          do_handshake_on_connect=False)
    # a short poll interval, so that shutdown does not wait half a second
    thread = threading.Thread(target=stub.serve_forever, args=(0.02,), daemon=True)
    thread.start()
    try:
        yield stub
    finally:
        stub.shutdown()
        stub.server_close()


def threads_named(prefix: str = "bab-") -> list[threading.Thread]:
    """The running threads whose names start with ``prefix``: by default,
    every thread of the package's decide and episode pools."""
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]
