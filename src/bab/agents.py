"""Decision-making backends.

Four interchangeable policies sit behind one ``decide`` interface:

- ``remote``: an HTTP chat-completion client (OpenAI-style JSON wire
  format) that retries with full-jitter exponential backoff, honours a
  ``Retry-After`` in seconds on 429 and 503, and gives one decision one
  deadline, ``AgentSpec.timeout`` seconds after it starts, for every
  attempt, every sleep and every read of a reply, and keeps its
  connections alive per server for the whole process (see
  ``RemotePolicy``);
- ``random``: a seeded uniform draw over the five actions, always
  emitting the stage's exact output format;
- ``greedy``: a deterministic navigator that closes the larger axis gap
  toward its objective and shoots through obstructions;
- ``canned``: replays a fixture transcript, one JSON-encoded reply per
  line.

Backends never mutate the world; they only read it to synthesize
replies, so the runner may ask several remote backends at once.
Credentials come from BAB_API_KEY, the default endpoint from
BAB_BASE_URL, an http:// or https:// URL; proxy environment variables
(``HTTPS_PROXY`` and the like) are not read.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import functools
import http.client
import json
import math
import os
import random
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import SplitResult, urlsplit

from .engine import ALL_ACTIONS, base_objective, probe_ahead
from .parsing import NO_COOP, Action, format_reply
from .stages import derive_seed, is_navigation
from .types import MOVE_DIRECTIONS, Orientation, Tank, WorldState

API_KEY_ENV = "BAB_API_KEY"
BASE_URL_ENV = "BAB_BASE_URL"

DEFAULT_TEMPERATURE = 0.2
DEFAULT_MAX_TOKENS = 512
DEFAULT_TIMEOUT = 60.0  # seconds per decision, all attempts and sleeps included
DEFAULT_RETRIES = 3


class AgentError(Exception):
    """A backend could not produce a reply (budget exhausted, bad fixture)."""


@dataclass(frozen=True)
class AgentSpec:
    """How one arena slot makes decisions."""

    backend: str  # remote | random | greedy | canned
    role: str = "primary"
    model: str = ""
    base_url: str = ""
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    timeout: float = DEFAULT_TIMEOUT
    retries: int = DEFAULT_RETRIES
    seed: int = 0
    transcript_path: str = ""

    @property
    def label(self) -> str:
        return self.model if self.backend == "remote" else self.backend

    def as_dict(self) -> dict:
        d = {"backend": self.backend, "role": self.role}
        if self.backend == "remote":
            d.update(model=self.model, base_url=self.base_url,
                     temperature=self.temperature, max_tokens=self.max_tokens)
        if self.backend == "random":
            d["seed"] = self.seed
        if self.backend == "canned":
            d["transcript"] = self.transcript_path
        return d


@dataclass
class ChatExchange:
    """One decision round-trip; local backends produce synthetic ones."""

    response: str
    latency_ms: float = 0.0
    attempt_count: int = 1
    error: str | None = None


def parse_model_name(name: str, base_url: str = "", role: str = "primary") -> AgentSpec:
    """Map a CLI model name onto a backend spec.

    ``random``, ``random:SEED``, ``greedy`` and ``canned:PATH`` (an
    existing transcript file) select local backends; anything else is a
    remote chat model served at ``base_url`` (or BAB_BASE_URL), an
    http:// or https:// URL.
    """
    if name == "greedy":
        return AgentSpec(backend="greedy", role=role)
    if name == "random":
        return AgentSpec(backend="random", role=role)
    if name.startswith("random:"):
        return AgentSpec(backend="random", role=role, seed=int(name.split(":", 1)[1]))
    if name.startswith("canned:"):
        path = name.split(":", 1)[1]
        if not Path(path).is_file():
            raise AgentError(f"canned transcript {path!r} is not a file")
        return AgentSpec(backend="canned", role=role, transcript_path=path)
    url = base_url or os.environ.get(BASE_URL_ENV, "")
    if not url:
        raise AgentError(
            f"remote model {name!r} needs a base URL (flag or ${BASE_URL_ENV})"
        )
    _split_base_url(url)
    return AgentSpec(backend="remote", role=role, model=name, base_url=url)


def make_backend(spec: AgentSpec, stage_id: int, agent_id: int,
                 coop_enabled: bool = True):
    """Instantiate the policy bound to one agent slot for one episode."""
    if spec.backend == "random":
        return RandomPolicy(spec, stage_id, agent_id, coop_enabled)
    if spec.backend == "greedy":
        return GreedyPolicy(stage_id, coop_enabled)
    if spec.backend == "canned":
        return CannedPolicy(spec.transcript_path)
    if spec.backend == "remote":
        return RemotePolicy(spec)
    raise AgentError(f"unknown backend {spec.backend!r}")


# ----------------------------------------------------------------------
# local policies
# ----------------------------------------------------------------------


class RandomPolicy:
    """Uniform over the five actions; reproducible per (seed, agent)."""

    def __init__(self, spec: AgentSpec, stage_id: int, agent_id: int,
                 coop_enabled: bool) -> None:
        self.stage_id = stage_id
        self.coop_enabled = coop_enabled
        self.rng = random.Random(derive_seed(spec.seed, f"agent-{agent_id}"))

    def decide(self, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
        action = self.rng.choice(ALL_ACTIONS)
        target = self._pick_target(world, agent_id)
        coop = NO_COOP if self.coop_enabled else None
        return ChatExchange(response=format_reply(self.stage_id, action, target, coop))

    def _pick_target(self, world: WorldState, agent_id: int) -> int:
        if is_navigation(self.stage_id):
            return 0
        me = world.tanks[agent_id]
        enemies = [t.id for t in world.live_tanks() if t.team != me.team]
        return self.rng.choice(enemies) if enemies else 0


class GreedyPolicy:
    """Close the larger axis gap toward the objective; shoot obstructions.

    Objective: the goal base on navigation stages, else the nearest
    intact enemy base. Ties between axes break toward horizontal.
    """

    def __init__(self, stage_id: int, coop_enabled: bool) -> None:
        self.stage_id = stage_id
        self.coop_enabled = coop_enabled

    def decide(self, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
        me = world.tanks[agent_id]
        return ChatExchange(response=self._reply(world, me))

    def _reply(self, world: WorldState, me: Tank) -> str:
        objective = base_objective(world, me)
        action = Action.SHOOT
        if objective is not None and objective != me.pos:
            direction = self._direction_toward(me, objective)
            kind, detail = probe_ahead(world, me, direction)
            enemy_ahead = kind == "tank" and detail.team != me.team
            if kind == "wall" or enemy_ahead:
                action = Action.SHOOT
            else:
                action = _MOVE_FOR[direction]
        target = self._target_id(world, me)
        coop = NO_COOP if self.coop_enabled else None
        return format_reply(self.stage_id, action, target, coop)

    @staticmethod
    def _direction_toward(me: Tank, objective) -> Orientation:
        dx = objective.x - me.pos.x
        dy = objective.y - me.pos.y
        if abs(dx) >= abs(dy) and dx != 0:
            return Orientation.RIGHT if dx > 0 else Orientation.LEFT
        return Orientation.DOWN if dy > 0 else Orientation.UP

    @staticmethod
    def _target_id(world: WorldState, me: Tank) -> int:
        kind, detail = probe_ahead(world, me)
        if kind == "tank" and detail.team != me.team:
            return detail.id
        enemies = [t for t in world.live_tanks() if t.team != me.team]
        if not enemies:
            return 0
        return min(enemies, key=lambda t: (me.pos.l1(t.pos), t.id)).id


_MOVE_FOR = {d: a for a, d in MOVE_DIRECTIONS.items()}


class CannedPolicy:
    """Replays a transcript: one JSON-encoded reply string per line."""

    def __init__(self, transcript_path: str) -> None:
        self.path = transcript_path
        # split at "\n" only, as read_log does: a raw U+2028 is inside a reply
        lines = Path(transcript_path).read_text(encoding="utf-8").split("\n")
        self.replies = [_transcript_reply(transcript_path, i, line)
                        for i, line in enumerate(lines, 1) if line.strip()]
        self.cursor = 0

    def decide(self, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
        if self.cursor >= len(self.replies):
            raise AgentError(f"transcript {self.path} exhausted at reply {self.cursor}")
        reply = self.replies[self.cursor]
        self.cursor += 1
        return ChatExchange(response=reply)


def _transcript_reply(path: str, line_no: int, line: str) -> str:
    try:
        reply = json.loads(line)
    except json.JSONDecodeError:
        reply = None
    if not isinstance(reply, str):
        raise AgentError(f"transcript {path} line {line_no} is not a JSON string: {line!r}")
    return reply


# ----------------------------------------------------------------------
# remote policy
# ----------------------------------------------------------------------


class RemotePolicy:
    """OpenAI-style chat-completion client with retry/backoff.

    The prompt's state half (the <game> block) goes in the user message;
    the instructional remainder goes in the system message.

    A failed attempt is retried after a full-jitter backoff, a uniform
    draw from ``[0, backoff_base * 2**(attempt - 1)]`` seconds, or after
    the server's ``Retry-After`` seconds on a 429 or 503.

    A decision has a deadline ``spec.timeout`` seconds after it starts;
    when no time is left for a sleep or an attempt, or a reply is not
    complete by then, the decision fails with ``AgentError``. The
    connection's socket holds the deadline: before each read and each
    write it sets its timeout to the time left, so the deadline covers
    the request and every read of a reply: status line, headers and body.
    Connecting waits at most the time left, as does each step of a TLS
    handshake.

    Connections are kept alive per server (scheme, host and port, and
    for https the trusted certificates), not per policy: every policy of
    the process shares them. An attempt takes an idle connection or opens
    a new one, and puts it back after a complete reply that left it open.
    So a process opens about as many connections to a server as it has
    requests in flight at once, and its later episodes and suites reuse
    them. One that the server closed while idle is opened again within
    the attempt. Connections to one server are opened one at a time: a
    first turn's burst of them at once, past the server's listen backlog,
    can be reset. Only the TCP connect waits its turn, and the wait
    counts against the decision's deadline; address lookups and TLS
    handshakes still overlap. Idle connections are closed at exit. Proxy
    environment variables are not read; redirects are not followed.
    """

    def __init__(self, spec: AgentSpec, backoff_base: float = 0.5) -> None:
        self.spec = spec
        self.backoff_base = backoff_base
        self._jitter = random.Random()
        url = _split_base_url(spec.base_url)
        https = url.scheme == "https"
        # what create_default_context trusts: a connection verified under
        # one setting is not reused under another
        trust = (os.environ.get("SSL_CERT_FILE"), os.environ.get("SSL_CERT_DIR")) if https else None
        port = url.port or (http.client.HTTPS_PORT if https else http.client.HTTP_PORT)
        self._server = (url.scheme, url.hostname, port, trust)
        self._idle = _idle.setdefault(self._server, collections.deque())
        self._path = url.path.rstrip("/") + "/chat/completions"

    def decide(self, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
        user, system = split_prompt(prompt)
        body = json.dumps({
            "model": self.spec.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": self.spec.temperature,
            "max_tokens": self.spec.max_tokens,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        attempts = 1 + max(0, self.spec.retries)
        start = time.monotonic()
        deadline = start + self.spec.timeout
        for attempt in range(1, attempts + 1):
            retry_after = None
            try:
                status, retry_header, reply = self._post(body, headers, deadline)
                if status >= 400:
                    if status in (429, 503):
                        retry_after = _retry_after_s(retry_header)
                    raise _Transient(f"HTTP {status}")
                text = json.loads(reply)["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise _Transient("missing assistant text")
                return ChatExchange(
                    response=text,
                    latency_ms=(time.monotonic() - start) * 1000.0,
                    attempt_count=attempt,
                )
            except (_Transient, OSError, http.client.HTTPException,
                    ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = str(exc) or type(exc).__name__
                if attempt == attempts:
                    raise AgentError(
                        f"remote call failed after {attempts} attempts: {last_error}"
                    ) from None
                if retry_after is None:
                    retry_after = self._jitter.uniform(
                        0.0, self.backoff_base * 2 ** (attempt - 1))
                if retry_after >= deadline - time.monotonic():
                    break
                time.sleep(retry_after)
        raise AgentError(
            f"remote call ran out of its {self.spec.timeout:g} s deadline: {last_error}"
        )

    def _post(self, body: bytes, headers: dict[str, str],
              deadline: float) -> tuple[int, str | None, bytes]:
        """One attempt: the reply's status, ``Retry-After`` and body."""
        left = deadline - time.monotonic()
        if left <= 0:
            raise _Transient("reply not complete by the deadline")
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = None
        reused = conn is not None
        resp = None
        try:
            if conn is None:
                conn = _new_connection(*self._server, timeout=left)
                conn.connect()
            conn.sock.deadline = deadline
            conn.request("POST", self._path, body, headers)
            resp = conn.getresponse()
            reply = resp.read()
        except BaseException as exc:
            if resp is not None:
                resp.close()
            if conn is not None:
                conn.close()
            if not isinstance(exc, (OSError, http.client.HTTPException)):
                raise
            if time.monotonic() >= deadline:
                raise _Transient("reply not complete by the deadline") from None
            if reused and resp is None and isinstance(exc, ConnectionError):
                return self._post(body, headers, deadline)  # the server closed it while idle
            raise
        if conn.sock is not None:  # a closing reply sets it to None
            self._idle.append(conn)
        return resp.status, resp.getheader("Retry-After"), reply


# Idle kept-alive connections per (scheme, host, port, trust), shared by
# every RemotePolicy of the process. A deque's append and pop are atomic,
# so threads share one with no lock; the one put back last is taken first.
_idle: dict[tuple, collections.deque] = {}


def close_idle_connections() -> None:
    """Close every kept-alive connection that no decision is using."""
    for idle in list(_idle.values()):
        with contextlib.suppress(IndexError):  # none left
            while True:
                idle.pop().close()


# else the interpreter finalizes them at exit, which in dev mode warns
# once per connection
atexit.register(close_idle_connections)


def _new_connection(scheme: str, host: str, port: int, trust: tuple | None,
                    timeout: float) -> http.client.HTTPConnection:
    """An unconnected connection whose socket will hold a deadline."""
    if scheme == "https":
        conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                           context=_tls_context(trust))
    else:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
    conn._create_connection = _connect
    return conn


def _connect(address, timeout, source_address=None) -> socket.socket:
    """A ``_DeadlineSocket`` connected to ``address`` within ``timeout``
    seconds, as ``socket.create_connection`` connects one, opened when
    no other connection to ``address`` is being opened. The address
    lookup is made first and does not wait its turn."""
    deadline = time.monotonic() + timeout
    infos = socket.getaddrinfo(*address, type=socket.SOCK_STREAM)
    lock = _connecting.setdefault(address, threading.Lock())
    if not lock.acquire(timeout=max(0.0, deadline - time.monotonic())):
        raise TimeoutError("no connection by the deadline")
    try:
        for family, kind, proto, _, sockaddr in infos:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("no connection by the deadline")
            sock = _DeadlineSocket(family, kind, proto)
            try:
                sock.settimeout(left)
                if source_address:
                    sock.bind(source_address)
                sock.connect(sockaddr)
                return sock
            except OSError as exc:
                sock.close()
                error = exc
        raise error  # from the last address tried
    finally:
        lock.release()


# One lock per (host, port): a server's listen backlog can be a handful of
# connections (5 for Python's socketserver), and connections past it wait
# a second or more for a resent SYN, or are reset.
_connecting: dict[tuple, threading.Lock] = {}


@functools.lru_cache(maxsize=None)
def _tls_context(trust: tuple[str | None, str | None]) -> ssl.SSLContext:
    """``http.client``'s default TLS context, with deadline-holding sockets.

    Built on first use, once per value of ``SSL_CERT_FILE`` and
    ``SSL_CERT_DIR``, which ``create_default_context`` reads: the same
    certificate and hostname checks as a default ``HTTPSConnection``.
    """
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    if context.post_handshake_auth is not None:
        context.post_handshake_auth = True
    context.sslsocket_class = _DeadlineSSLSocket
    return context


class _HoldsDeadline:
    """Before each read and write, the socket's timeout becomes the time
    left until ``deadline``, a ``time.monotonic()`` time; once none is
    left, ``TimeoutError``."""

    deadline = math.inf

    def _hold(self) -> None:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("reply not complete by the deadline")
        self.settimeout(left)

    def recv_into(self, *args):
        self._hold()
        return super().recv_into(*args)

    def sendall(self, *args):
        self._hold()
        return super().sendall(*args)


class _DeadlineSocket(_HoldsDeadline, socket.socket):
    pass


class _DeadlineSSLSocket(_HoldsDeadline, ssl.SSLSocket):
    # SSLSocket.sendall is a loop of send calls, each given the whole timeout
    def send(self, *args):
        self._hold()
        return super().send(*args)


def _split_base_url(url: str) -> SplitResult:
    """``url``'s parts; AgentError unless it is http(s) with a host."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
        raise AgentError(f"base URL {url!r} is not an http:// or https:// URL with a host")
    return parts


def _retry_after_s(value: str | None) -> float | None:
    """A ``Retry-After`` header given in seconds; None for a date or junk."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


class _Transient(Exception):
    pass


def split_prompt(prompt: str) -> tuple[str, str]:
    """Split a rendered prompt into (state half, instructional half)."""
    marker = "</game>"
    idx = prompt.find(marker)
    if idx < 0:
        return prompt, ""
    cut = idx + len(marker)
    return prompt[:cut], prompt[cut:].lstrip("\n")
