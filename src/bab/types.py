"""Domain types for the tank-battle world.

Geometry conventions used everywhere:
- The map is a 512x512 pixel square; (0, 0) is the top-left corner.
- Positions name the top-left corner of an entity footprint and are
  multiples of 8 (the wall-cell size). Tanks and bases are 32x32,
  wall cells 8x8 on a 64x64 lattice.
- Up decreases y, Down increases y, Left decreases x, Right increases x.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

MAP_SIZE = 512
TANK_SIZE = 32
WALL_SIZE = 8
MOVE_STEP = 32
WALL_LATTICE = MAP_SIZE // WALL_SIZE  # 64x64 cells

AGENT_HEALTH = 5
NPC_HEALTH = 1
TANK_HIT_SCORE = 1
BASE_HIT_SCORE = 5


class Pos(NamedTuple):
    x: int
    y: int

    def l1(self, other: "Pos") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y)


class Orientation(str, Enum):
    UP = "up"
    DOWN = "down"
    LEFT = "left"
    RIGHT = "right"

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {
    Orientation.UP: (0, -1),
    Orientation.DOWN: (0, 1),
    Orientation.LEFT: (-1, 0),
    Orientation.RIGHT: (1, 0),
}


class Action(str, Enum):
    MOVE_UP = "#Move_up#"
    MOVE_DOWN = "#Move_down#"
    MOVE_LEFT = "#Move_left#"
    MOVE_RIGHT = "#Move_right#"
    SHOOT = "#Shoot#"


MOVE_DIRECTIONS = {
    Action.MOVE_UP: Orientation.UP,
    Action.MOVE_DOWN: Orientation.DOWN,
    Action.MOVE_LEFT: Orientation.LEFT,
    Action.MOVE_RIGHT: Orientation.RIGHT,
}


class TankKind(str, Enum):
    AGENT = "agent"
    NPC = "npc"


class Goal(str, Enum):
    NAVIGATION = "navigation"
    COOPERATIVE = "cooperative_task"
    COMPETITIVE = "competitive_task"
    STATIC_COOP = "static_coop"
    DYNAMIC_COOP = "dynamic_coop"
    HYBRID_COOP = "hybrid_coop"


class CoopTopology(str, Enum):
    NONE = "none"
    INTRA_TEAM = "intra_team"
    INTER_TEAM = "inter_team"
    BOTH = "both"


class EndReason(str, Enum):
    GOAL_REACHED = "goal_reached"
    TURN_CAP = "turn_cap"
    TEAM_VICTORY = "team_victory"


class Blocker(str, Enum):
    WALL = "wall"
    TANK = "tank"
    BASE = "base"
    BOUNDARY = "boundary"


class Disposition(str, Enum):
    PENDING = "pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    STOPPED = "stopped"


class EngineError(Exception):
    """Base class for simulation errors."""


class StageLoadError(EngineError):
    """Raised when a stage cannot be materialized (bad id, colliding spawns)."""


class UnknownEntityError(EngineError):
    """Raised when an operation names an entity id that does not exist."""


class DeadEntityError(EngineError):
    """Raised when an operation targets an entity that is no longer on the grid."""


@dataclass
class Tank:
    id: int
    kind: TankKind
    team: int | None  # NPC tanks carry no team
    pos: Pos
    facing: Orientation
    health: int
    score: int = 0
    coop_capable: bool = False

    @property
    def alive(self) -> bool:
        return self.health > 0

    @property
    def center(self) -> Pos:
        return Pos(self.pos.x + TANK_SIZE // 2, self.pos.y + TANK_SIZE // 2)


@dataclass
class Base:
    id: int
    team: int
    pos: Pos
    destroyed: bool = False
    solid: bool = True  # navigation-goal bases are drive-over markers

    @property
    def blocking(self) -> bool:
        return self.solid and not self.destroyed


class WallGrid:
    """Occupancy of the 64x64 lattice of 8x8 wall cells."""

    def __init__(self, cells: set[tuple[int, int]] | None = None) -> None:
        self.cells: set[tuple[int, int]] = set(cells or ())

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self.cells

    def add(self, cx: int, cy: int) -> None:
        self.cells.add((cx, cy))

    def remove(self, cx: int, cy: int) -> None:
        self.cells.discard((cx, cy))

    def cell_at(self, x: int, y: int) -> tuple[int, int] | None:
        """Return the present wall cell containing pixel (x, y), if any."""
        cell = (x // WALL_SIZE, y // WALL_SIZE)
        return cell if cell in self.cells else None

    def cells_in_rect(self, x: int, y: int, w: int, h: int) -> Iterator[tuple[int, int]]:
        """Present wall cells intersecting the half-open rect [x, x+w) x [y, y+h)."""
        cx0 = max(0, x // WALL_SIZE)
        cy0 = max(0, y // WALL_SIZE)
        cx1 = min(WALL_LATTICE - 1, (x + w - 1) // WALL_SIZE)
        cy1 = min(WALL_LATTICE - 1, (y + h - 1) // WALL_SIZE)
        for cy in range(cy0, cy1 + 1):
            for cx in range(cx0, cx1 + 1):
                if (cx, cy) in self.cells:
                    yield (cx, cy)

    def overlaps_rect(self, x: int, y: int, w: int, h: int) -> bool:
        return next(self.cells_in_rect(x, y, w, h), None) is not None


@dataclass(frozen=True)
class StageConfig:
    stage_id: int
    turn_cap: int
    n_agents: int
    n_teams: int
    n_bases: int
    n_npcs: int
    goal: Goal
    coop_topology: CoopTopology
    spawn_jitter_cells: int
    wall_density: float

    def as_dict(self) -> dict:
        return {
            "stage_id": self.stage_id,
            "turn_cap": self.turn_cap,
            "n_agents": self.n_agents,
            "n_teams": self.n_teams,
            "n_bases": self.n_bases,
            "n_npcs": self.n_npcs,
            "goal": self.goal.value,
            "coop_topology": self.coop_topology.value,
            "spawn_jitter_cells": self.spawn_jitter_cells,
            "wall_density": self.wall_density,
        }


@dataclass
class CoopMessage:
    turn: int
    from_id: int
    to_id: int
    body: str
    disposition: Disposition = Disposition.PENDING


@dataclass(frozen=True)
class MoveOutcome:
    moved: bool
    blocker: Blocker | None = None

    def to_dict(self) -> dict:
        if self.moved:
            return {"result": "moved"}
        return {"result": "blocked", "blocker": self.blocker.value}


@dataclass(frozen=True)
class ShootOutcome:
    result: str  # hit_wall | hit_tank | hit_base | no_hit
    cell: tuple[int, int] | None = None  # wall-cell pixel origin
    target_id: int | None = None
    destroyed: bool = False
    score: int = 0

    def to_dict(self) -> dict:
        d: dict = {"result": self.result}
        if self.cell is not None:
            d["cell"] = list(self.cell)
        if self.target_id is not None:
            d["target"] = self.target_id
        if self.result == "hit_tank":
            d["destroyed"] = self.destroyed
        return d


NOOP_OUTCOME = {"result": "noop"}


@dataclass
class TurnRecord:
    """Per-agent, per-turn log entry; the engine fills the simulation fields
    and the harness adds the prompt/exchange metadata."""

    turn: int
    agent_id: int
    pos_before: Pos
    pos_after: Pos
    facing_after: Orientation
    action: str | None
    target_id: int | None
    coop: dict | None
    format_ok: bool
    outcome: dict
    score_delta: int
    objective: Pos | None
    alive_after: bool
    prompt_digest: str = ""
    raw_reply: str = ""
    error: str | None = None
    attempts: int = 0
    latency_ms: float = 0.0


@dataclass
class WorldState:
    """Complete mutable game state.

    Single-threaded by contract: exactly one mutator at a time. All
    randomness flows through the two owned streams; nothing touches the
    global RNG.
    """

    config: StageConfig
    seed: int
    tanks: dict[int, Tank]
    bases: dict[int, Base]
    walls: WallGrid
    rng_world: random.Random
    rng_npc: random.Random
    turn: int = 0
    status: EndReason | None = None
    winner_team: int | None = None
    coop_pairs: set[tuple[int, int]] = field(default_factory=set)
    coop_history: list[CoopMessage] = field(default_factory=list)
    last_turn_targets: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self.status is None

    def live_tanks(self) -> list[Tank]:
        return [t for t in self.tanks.values() if t.alive]

    def live_agents(self) -> list[Tank]:
        return sorted(
            (t for t in self.tanks.values() if t.alive and t.kind is TankKind.AGENT),
            key=lambda t: t.id,
        )

    def live_npcs(self) -> list[Tank]:
        return sorted(
            (t for t in self.tanks.values() if t.alive and t.kind is TankKind.NPC),
            key=lambda t: t.id,
        )

    def require_tank(self, entity_id: int) -> Tank:
        tank = self.tanks.get(entity_id)
        if tank is None:
            raise UnknownEntityError(f"no tank with id {entity_id}")
        if not tank.alive:
            raise DeadEntityError(f"tank {entity_id} is not on the grid")
        return tank

    def teams_alive(self) -> set[int]:
        """Teams still in the game: a team lives while its base stands."""
        return {b.team for b in self.bases.values() if not b.destroyed}

    def tank_at_rect(self, x: int, y: int, exclude_id: int | None = None,
                     size: int = TANK_SIZE) -> Tank | None:
        """Size 1 asks about the single pixel (x, y)."""
        return first_overlapping(self.tanks.values(), x, y, size, size,
                                 lambda t: t.alive and t.id != exclude_id)

    def blocking_base_at_rect(self, x: int, y: int, size: int = TANK_SIZE) -> Base | None:
        return first_overlapping(self.bases.values(), x, y, size, size,
                                 lambda b: b.blocking)

    def base_for_team(self, team: int | None) -> Base | None:
        for b in self.bases.values():
            if b.team == team:
                return b
        return None

    def pending_messages_for(self, agent_id: int) -> list[CoopMessage]:
        """Messages routed last turn; these surface in the next observation."""
        return [
            m
            for m in self.coop_history
            if m.to_id == agent_id and m.turn == self.turn - 1
        ]

    # ------------------------------------------------------------------
    # canonical serialization
    # ------------------------------------------------------------------

    def canonical_bytes(self) -> bytes:
        """Platform-stable byte serialization: fixed field order,
        little-endian integers, entities sorted by id."""
        buf = bytearray()

        def pack(fmt: str, *values) -> None:
            buf.extend(struct.pack("<" + fmt, *values))

        pack("4sH", b"BABW", 1)
        c = self.config
        pack(
            "6i",
            c.stage_id,
            c.turn_cap,
            c.n_agents,
            c.n_teams,
            c.n_bases,
            c.n_npcs,
        )
        pack("BB", _GOAL_CODES[c.goal], _TOPOLOGY_CODES[c.coop_topology])
        pack("id", c.spawn_jitter_cells, c.wall_density)
        pack("qi", self.seed, self.turn)
        pack(
            "Bi",
            0 if self.status is None else _END_CODES[self.status],
            -1 if self.winner_team is None else self.winner_team,
        )

        pack("i", len(self.tanks))
        for t in sorted(self.tanks.values(), key=lambda t: t.id):
            pack(
                "iBi2iB3i",
                t.id,
                1 if t.kind is TankKind.AGENT else 0,
                -1 if t.team is None else t.team,
                t.pos.x,
                t.pos.y,
                _FACING_CODES[t.facing],
                t.health,
                t.score,
                1 if t.coop_capable else 0,
            )

        pack("i", len(self.bases))
        for b in sorted(self.bases.values(), key=lambda b: b.id):
            pack("4iBB", b.id, b.team, b.pos.x, b.pos.y, b.destroyed, b.solid)

        cells = sorted(self.walls.cells)
        pack("i", len(cells))
        for cx, cy in cells:
            pack("2H", cx, cy)

        pairs = sorted(self.coop_pairs)
        pack("i", len(pairs))
        for a, b in pairs:
            pack("2i", a, b)

        pack("i", len(self.coop_history))
        for m in self.coop_history:
            body = m.body.encode("utf-8")
            pack("3iB", m.turn, m.from_id, m.to_id, _DISPOSITION_CODES[m.disposition])
            pack("i", len(body))
            buf.extend(body)

        targets = sorted(self.last_turn_targets.items())
        pack("i", len(targets))
        for agent_id, target_id in targets:
            pack("2i", agent_id, target_id)

        return bytes(buf)

    def world_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


_GOAL_CODES = {g: i for i, g in enumerate(Goal)}
_TOPOLOGY_CODES = {t: i for i, t in enumerate(CoopTopology)}
_END_CODES = {EndReason.GOAL_REACHED: 1, EndReason.TURN_CAP: 2, EndReason.TEAM_VICTORY: 3}
_FACING_CODES = {o: i for i, o in enumerate(Orientation)}
_DISPOSITION_CODES = {d: i for i, d in enumerate(Disposition)}


def first_overlapping(items, x: int, y: int, w: int, h: int, keep=None):
    """First item whose 32x32 footprint at ``item.pos`` overlaps the
    half-open rect [x, x+w) x [y, y+h) and passes ``keep``, if given.
    Geometry goes first, so ``keep`` runs only on the rare hits."""
    x0, y0, x1, y1 = x - TANK_SIZE, y - TANK_SIZE, x + w, y + h
    for item in items:
        pos = item.pos
        if x0 < pos.x < x1 and y0 < pos.y < y1 and (keep is None or keep(item)):
            return item
    return None


def in_bounds(x: int, y: int, size: int = TANK_SIZE) -> bool:
    return 0 <= x <= MAP_SIZE - size and 0 <= y <= MAP_SIZE - size
