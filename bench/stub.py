"""Loopback chat-completion stub for the remote-stub workload.

Run as its own process: ``python3 bench/stub.py --delay-ms 10``. It binds
an ephemeral port on 127.0.0.1, prints ``port <n>`` on one line once it
accepts connections, and serves until terminated.

``POST /chat/completions`` sleeps for the injected delay, then answers in
the OpenAI-style wire format with a reply in the stage's output format.
The action, the attack target and the cooperation command are chosen
deterministically from the request's user message, so the same episode
always gets the same replies. ``GET /stats`` returns the number of chat
requests served so far.

Connections are served on their own threads, so concurrent decisions can
overlap their delays. Each response (status line, headers and body) goes
out in one write on a TCP_NODELAY socket: a split write would stall on
Nagle's algorithm waiting for the client's delayed ACK, which adds tens
of milliseconds per request that are no part of the program under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ACTIONS = ("#Move_up#", "#Move_down#", "#Move_left#", "#Move_right#", "#Shoot#")
_TANK_RE = re.compile(r"^\((\d+), -?\d+, -?\d+, ")


def _section_ids(user: str) -> dict[str, list[int]]:
    """Tank ids listed under each ``... tank position information`` header."""
    sections: dict[str, list[int]] = {}
    current = None
    for line in user.splitlines():
        m = _TANK_RE.match(line)
        if m and current is not None:
            sections[current].append(int(m.group(1)))
        elif "tank position information" in line:
            current = line.split(" tank position information")[0].strip()
            sections[current] = []
        else:
            current = None
    return sections


def reply_for(system: str, user: str) -> str:
    """A well-formed reply for the stage whose instructions are ``system``."""
    h = int.from_bytes(hashlib.sha256(user.encode("utf-8")).digest()[:8], "big")
    action = ACTIONS[h % len(ACTIONS)]
    ids = _section_ids(user)
    enemies = ids.get("Enemy", [])
    target = enemies[(h >> 8) % len(enemies)] if enemies else 0
    if "#Attack operation:" not in system:
        if "#Operation: Target" in system:
            return f"#Operation: Target {target}: {action}"
        return f"#Operation: {action}"
    text = f"#Attack operation: Target {target}: {action}"
    if "#Cooperation operation:" in system:
        teammates = ids.get("Teammate", [])
        pick = (h >> 16) % 8
        if pick == 0 and teammates:
            mate = teammates[(h >> 24) % len(teammates)]
            coop = f"#Request_coop# {mate}: attack tank {target}"
        elif pick == 1:
            coop = "#Keep_coop#"
        elif pick == 2:
            coop = "#Stop_coop#"
        else:
            coop = "#No_coop#"
        text += f"\n#Cooperation operation: {coop}"
    return text


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay_s: float) -> None:
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.delay_s = delay_s
        self.requests_served = 0
        self.lock = threading.Lock()


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            served = self.server.requests_served
        self._send(200, {"requests": served})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if self.path != "/chat/completions":
            self._send(404, {"error": "not found"})
            return
        request = json.loads(body)
        messages = {m["role"]: m["content"] for m in request["messages"]}
        text = reply_for(messages.get("system", ""), messages.get("user", ""))
        with self.server.lock:
            self.server.requests_served += 1
        time.sleep(self.server.delay_s)
        self._send(200, {
            "object": "chat.completion",
            "model": request.get("model", ""),
            "choices": [{
                "index": 0,
                "message": {"role": "assistant", "content": text},
                "finish_reason": "stop",
            }],
        })

    def log_message(self, *args) -> None:
        pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args(argv)
    server = StubServer(args.delay_ms / 1000.0)
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
