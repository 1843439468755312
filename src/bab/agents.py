"""Decision-making backends.

Four interchangeable policies sit behind one ``decide`` interface:

- ``remote``: an HTTP chat-completion client (OpenAI-style JSON wire
  format) with exponential-backoff retries;
- ``random``: a seeded uniform draw over the five actions, always
  emitting the stage's exact output format;
- ``greedy``: a deterministic navigator that closes the larger axis gap
  toward its objective and shoots through obstructions;
- ``canned``: replays a fixture transcript, one JSON-encoded reply per
  line.

Backends never mutate the world; they only read it to synthesize
replies. Credentials come from BAB_API_KEY, the default endpoint from
BAB_BASE_URL.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

import requests

from .engine import base_objective, probe_ahead
from .parsing import NO_COOP, Action, format_reply
from .stages import STAGE_PROTOCOLS, coop_active, derive_seed
from .types import MOVE_DIRECTIONS, Orientation, Tank, WorldState

API_KEY_ENV = "BAB_API_KEY"
BASE_URL_ENV = "BAB_BASE_URL"

DEFAULT_TEMPERATURE = 0.2
DEFAULT_MAX_TOKENS = 512
DEFAULT_TIMEOUT = 60.0
DEFAULT_RETRIES = 3

ALL_ACTIONS = tuple(Action)


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
    system: str = ""
    user: str = ""
    latency_ms: float = 0.0
    attempt_count: int = 1
    error: str | None = None


def parse_model_name(name: str, base_url: str = "", role: str = "primary",
                     seed: int = 0) -> AgentSpec:
    """Map a CLI model name onto a backend spec.

    ``random``, ``random:SEED``, ``greedy`` and ``canned:PATH`` select
    local backends; anything else is a remote chat model served at
    ``base_url`` (or BAB_BASE_URL).
    """
    if name == "greedy":
        return AgentSpec(backend="greedy", role=role)
    if name == "random":
        return AgentSpec(backend="random", role=role, seed=seed)
    if name.startswith("random:"):
        return AgentSpec(backend="random", role=role, seed=int(name.split(":", 1)[1]))
    if name.startswith("canned:"):
        return AgentSpec(backend="canned", role=role, transcript_path=name.split(":", 1)[1])
    url = base_url or os.environ.get(BASE_URL_ENV, "")
    if not url:
        raise AgentError(
            f"remote model {name!r} needs a base URL (flag or ${BASE_URL_ENV})"
        )
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
        coop = NO_COOP if coop_active(world.config, self.coop_enabled) else None
        return ChatExchange(response=format_reply(self.stage_id, action, target, coop))

    def _pick_target(self, world: WorldState, agent_id: int) -> int:
        if not STAGE_PROTOCOLS[self.stage_id].targeted:
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
        coop = NO_COOP if coop_active(world.config, self.coop_enabled) else None
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
        lines = Path(transcript_path).read_text(encoding="utf-8").splitlines()
        self.replies = [json.loads(line) for line in lines if line.strip()]
        self.cursor = 0

    def decide(self, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
        if self.cursor >= len(self.replies):
            raise AgentError(f"transcript {self.path} exhausted at reply {self.cursor}")
        reply = self.replies[self.cursor]
        self.cursor += 1
        return ChatExchange(response=reply)


# ----------------------------------------------------------------------
# remote policy
# ----------------------------------------------------------------------


class RemotePolicy:
    """OpenAI-style chat-completion client with retry/backoff.

    The prompt's state half (the <game> block) goes in the user message;
    the instructional remainder goes in the system message.
    """

    def __init__(self, spec: AgentSpec, backoff_base: float = 0.5,
                 session: requests.Session | None = None) -> None:
        self.spec = spec
        self.backoff_base = backoff_base
        self.session = session or requests.Session()

    def decide(self, prompt: str, world: WorldState, agent_id: int) -> ChatExchange:
        user, system = split_prompt(prompt)
        payload = {
            "model": self.spec.model,
            "messages": [
                {"role": "system", "content": system},
                {"role": "user", "content": user},
            ],
            "temperature": self.spec.temperature,
            "max_tokens": self.spec.max_tokens,
        }
        headers = {}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        url = self.spec.base_url.rstrip("/") + "/chat/completions"
        attempts = 1 + max(0, self.spec.retries)
        start = time.monotonic()
        last_error = "no attempt made"
        for attempt in range(1, attempts + 1):
            try:
                resp = self.session.post(
                    url, json=payload, headers=headers, timeout=self.spec.timeout
                )
                if resp.status_code >= 500 or resp.status_code == 429:
                    raise _Transient(f"HTTP {resp.status_code}")
                resp.raise_for_status()
                text = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise _Transient("missing assistant text")
                return ChatExchange(
                    response=text,
                    system=system,
                    user=user,
                    latency_ms=(time.monotonic() - start) * 1000.0,
                    attempt_count=attempt,
                )
            except (_Transient, requests.RequestException, ValueError, KeyError,
                    IndexError, TypeError) as exc:
                last_error = str(exc) or type(exc).__name__
                if attempt < attempts:
                    time.sleep(self.backoff_base * (2 ** (attempt - 1)))
        raise AgentError(
            f"remote call failed after {attempts} attempts: {last_error}"
        )


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
