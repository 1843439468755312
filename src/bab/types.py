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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from types import UnionType
from typing import Iterable, NamedTuple, Union, get_args, get_origin, get_type_hints

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
    """Occupancy of the 64x64 lattice of 8x8 wall cells.

    Cell (cx, cy) is bit ``cx`` of row mask ``cy`` and bit ``cy`` of
    column mask ``cx``; ``add``, ``remove`` and ``fill`` keep both in
    step with the cell count, so every query is a few integer operations
    on one row or column. ``cells`` is a read-only set view derived from
    the masks. ``cells_text`` caches each column's text under the column
    and the row subset it selects, which names the cells themselves, so
    no edit can leave stale text behind. The cache is not world state:
    ``pack`` reads the masks only.
    """

    def __init__(self, cells: Iterable[tuple[int, int]] | None = None) -> None:
        self._rows = [0] * WALL_LATTICE
        self._cols = [0] * WALL_LATTICE
        self._count = 0
        # (row subset << 6 | column) -> text
        self._texts: dict[int, str] = {}
        for cx, cy in cells or ():
            self.add(cx, cy)

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset((cx, cy) for cx, col in enumerate(self._cols)
                         for cy in range(WALL_LATTICE) if col >> cy & 1)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, cell: tuple[int, int]) -> bool:
        cx, cy = cell
        return (0 <= cx < WALL_LATTICE and 0 <= cy < WALL_LATTICE
                and bool(self._rows[cy] >> cx & 1))

    def add(self, cx: int, cy: int) -> None:
        if not self._rows[cy] >> cx & 1:
            self._rows[cy] |= 1 << cx
            self._cols[cx] |= 1 << cy
            self._count += 1

    def remove(self, cx: int, cy: int) -> None:
        if self._rows[cy] >> cx & 1:
            self._rows[cy] &= ~(1 << cx)
            self._cols[cx] &= ~(1 << cy)
            self._count -= 1

    def fill(self, cx: int, cy: int, w: int, h: int) -> None:
        """Add the w x h block of cells whose top-left cell is (cx, cy)."""
        block = ((1 << w) - 1) << cx
        rows = self._rows
        for y in range(cy, cy + h):
            self._count += (block & ~rows[y]).bit_count()
            rows[y] |= block
        span = ((1 << h) - 1) << cy
        for x in range(cx, cx + w):
            self._cols[x] |= span

    def cells_text(self, xs: range, ys: range) -> str:
        """The pixel origins "(x, y)" of the present cells in columns
        ``xs`` and rows ``ys``, x-major, joined by ", ". Windows that
        select the same cells of a column share its cached text, and an
        empty selection needs none."""
        rows = (1 << ys.stop) - (1 << ys.start) if ys else 0
        cols, cache = self._cols, self._texts
        texts = []
        for cx in xs:
            selected = cols[cx] & rows
            if selected:
                key = selected << 6 | cx
                text = cache.get(key)
                if text is None:
                    x = cx * WALL_SIZE
                    text = cache[key] = ", ".join(
                        f"({x}, {cy * WALL_SIZE})" for cy in ys if selected >> cy & 1
                    )
                texts.append(text)
        return ", ".join(texts)

    def cell_at(self, x: int, y: int) -> tuple[int, int] | None:
        """Return the present wall cell containing pixel (x, y), if any."""
        cx, cy = x // WALL_SIZE, y // WALL_SIZE
        if 0 <= cx < WALL_LATTICE and 0 <= cy < WALL_LATTICE and self._rows[cy] >> cx & 1:
            return (cx, cy)
        return None

    def first_in_rect(self, x: int, y: int, w: int, h: int) -> tuple[int, int] | None:
        """The first present wall cell, row-major, that intersects the
        half-open pixel rect [x, x+w) x [y, y+h); None when there is none."""
        cx0 = max(0, x // WALL_SIZE)
        cx1 = min(WALL_LATTICE - 1, (x + w - 1) // WALL_SIZE)
        if cx1 < cx0:
            return None
        span = (2 << cx1) - (1 << cx0)
        cy0 = max(0, y // WALL_SIZE)
        cy1 = min(WALL_LATTICE - 1, (y + h - 1) // WALL_SIZE)
        rows = self._rows
        for cy in range(cy0, cy1 + 1):
            hit = rows[cy] & span
            if hit:
                return ((hit & -hit).bit_length() - 1, cy)
        return None

    def overlaps_rect(self, x: int, y: int, w: int, h: int) -> bool:
        return self.first_in_rect(x, y, w, h) is not None

    def pack(self) -> bytes:
        """The cell count as a little-endian int32, then each cell's (cx,
        cy) as two little-endian uint16, x-major: the order of
        ``sorted(cells)``. Indices are below 256, so a cell packs as the
        four bytes cx, 0, cy, 0."""
        cols = self._cols
        masks = b"".join(col.to_bytes(WALL_LATTICE // 8, "little") for col in cols)
        out = bytearray(4 * self._count)
        out[0::4] = b"".join([bytes((cx,)) * col.bit_count() for cx, col in enumerate(cols)])
        out[2::4] = b"".join([_BYTE_ROWS[i % 8][b] for i, b in enumerate(masks)])
        return struct.pack("<i", self._count) + out


# _BYTE_ROWS[i][b]: the rows, one byte each, of the bits set in byte b at
# byte i of a column mask
_BYTE_ROWS = [[bytes(8 * i + r for r in range(8) if b >> r & 1) for b in range(256)]
              for i in range(WALL_LATTICE // 8)]


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


@dataclass
class CoopMessage:
    turn: int
    from_id: int
    to_id: int
    body: str
    disposition: Disposition = Disposition.PENDING


class CoopKind(str, Enum):
    REQUEST = "request_coop"
    KEEP = "keep_coop"
    STOP = "stop_coop"
    NO = "no_coop"


@dataclass(frozen=True)
class CoopCommand:
    """One reply's cooperation command; the field names are its log keys."""

    kind: CoopKind
    to: int | None = None
    message: str = ""


@dataclass(frozen=True)
class Outcome:
    """How one action resolved; the field names are its log keys, and a
    field left at its default is left out of the log.

    ``result`` is ``moved``, ``blocked`` (with its ``blocker``),
    ``hit_wall`` (with the wall ``cell``'s pixel origin), ``hit_tank``
    (with the ``target`` id and whether it was ``destroyed``),
    ``hit_base`` (with the ``target`` id), ``no_hit``, or ``noop`` (with
    its ``reason``: ``dead`` or ``invalid_format``)."""

    result: str
    blocker: Blocker | None = None
    cell: Pos | None = None
    target: int | None = None
    destroyed: bool | None = None
    reason: str | None = None


@dataclass(frozen=True)
class CoopEvent:
    """A ``coop`` log line: a routed request, accept, reject, drop, keep or stop."""

    turn: int
    event: str
    from_: int
    to: int | None = None
    message: str | None = None
    reason: str | None = None


def encode(record) -> dict:
    """The JSON object of a coop line or of a record nested in a log line:
    each field that differs from its default, keyed by its log key."""
    return {_key(f.name): value for f in fields(record)
            if (value := getattr(record, f.name)) != f.default}


def _key(name: str) -> str:
    return name.removesuffix("_")  # a field's log key: "from_" escapes the keyword "from"


@dataclass
class TurnRecord:
    """Per-agent, per-turn log entry. The field names are the keys of a
    ``turn`` line in the replay log, read back with ``decode``. The engine
    fills the fields without a default and the reply it acted on; the
    harness adds the prompt and exchange metadata."""

    turn: int
    agent: int
    pos_before: Pos
    pos_after: Pos
    facing: Orientation
    action: Action | None
    target: int | None
    coop: CoopCommand | None
    format_ok: bool
    outcome: Outcome
    score_delta: int
    objective: Pos | None
    alive_after: bool
    prompt_sha256: str = ""
    reply: str = ""
    error: str | None = None
    attempts: int = 0
    latency_ms: float = 0.0


@dataclass
class WorldState:
    """Complete mutable game state.

    Single-threaded by contract: exactly one mutator at a time. All
    randomness flows through the two owned streams; nothing touches the
    global RNG. ``coop_history`` is the one record of cooperation: every
    routed request in order, each with its disposition, from which the
    active pairs are derived.
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
    coop_history: list[CoopMessage] = field(default_factory=list)
    last_turn_targets: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self.status is None

    @property
    def coop_pairs(self) -> frozenset[tuple[int, int]]:
        """Pairs cooperating now, low id first: those of the accepted messages."""
        return frozenset((min(m.from_id, m.to_id), max(m.from_id, m.to_id))
                         for m in self.coop_history if m.disposition is Disposition.ACCEPTED)

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

    def tank_at_rect(self, x: int, y: int, exclude_id: int | None = None) -> Tank | None:
        return first_overlapping(self.tanks.values(), x, y, TANK_SIZE, TANK_SIZE,
                                 lambda t: t.alive and t.id != exclude_id)

    def blocking_base_at_rect(self, x: int, y: int) -> Base | None:
        return first_overlapping(self.bases.values(), x, y, TANK_SIZE, TANK_SIZE,
                                 lambda b: b.blocking)

    def base_for_team(self, team: int | None) -> Base | None:
        for b in self.bases.values():
            if b.team == team:
                return b
        return None

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
            agent = t.kind is TankKind.AGENT
            pack(
                "iBi2iB3i",
                t.id,
                agent,
                -1 if t.team is None else t.team,
                t.pos.x,
                t.pos.y,
                _FACING_CODES[t.facing],
                t.health,
                t.score,
                agent,  # cooperation capability: every agent has it, no NPC
            )

        pack("i", len(self.bases))
        for b in sorted(self.bases.values(), key=lambda b: b.id):
            pack("4iBB", b.id, b.team, b.pos.x, b.pos.y, b.destroyed, b.solid)

        buf.extend(self.walls.pack())

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


def in_bounds(x: int, y: int) -> bool:
    return 0 <= x <= MAP_SIZE - TANK_SIZE and 0 <= y <= MAP_SIZE - TANK_SIZE


class DecodeError(ValueError):
    """A JSON object that does not fit a record's fields."""


def decode(cls, data: dict):
    """The dataclass ``cls`` built from a JSON object keyed by its fields'
    log keys, each value checked against the field's annotation.
    ``DecodeError`` names the missing fields that have no default, the
    first bad value, or the keys that name no field."""
    required, converters = _schema(cls)
    missing = [key for key in required if key not in data]
    if missing:
        raise DecodeError(f"lacks {', '.join(missing)}")
    # keyed by the field names, not by the parsed JSON's key strings: the
    # call below matches interned keyword names by identity, far faster
    values = {}
    for key, (name, convert, expected) in converters.items():
        if key in data:
            try:
                values[name] = convert(data[key])
            except DecodeError as exc:  # from a nested record
                raise DecodeError(f"{key!r}: {exc}") from None
            except (TypeError, ValueError, KeyError, AttributeError):
                raise DecodeError(f"{key!r} takes {expected}, not {data[key]!r}") from None
    if len(values) < len(data):
        raise DecodeError(f"has keys that name no field: {sorted(data.keys() - converters.keys())}")
    return cls(**values)


@cache
def _schema(cls) -> tuple[list[str], dict]:
    """The required fields' log keys, and per log key (field name, converter, what it takes)."""
    hints = get_type_hints(cls)
    return ([_key(f.name) for f in fields(cls)
             if f.default is MISSING and f.default_factory is MISSING],
            {_key(f.name): (f.name, *_converter(hints[f.name])) for f in fields(cls)})


def _converter(hint) -> tuple:
    """(convert, what it takes) for an annotation: ``convert`` returns the
    field value for a JSON value or raises TypeError, ValueError, KeyError
    or AttributeError. A plain type takes exactly itself, so a bool is no
    int, but a float takes an int, kept as it is so that it re-encodes to
    the same text. ``dict[int, V]`` is keyed by ``str(id)``, and a record
    takes an object that ``decode`` reads."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # X | None
        convert, expected = _converter(args[0])
        return (lambda v: None if v is None else convert(v)), expected
    if origin is list:
        item, expected = _converter(args[0])
        return (lambda v: [item(x) for x in _exactly(list)(v)]), f"a list, each {expected}"
    if origin is dict:  # only a JSON object has .items()
        item, expected = _converter(args[1])
        return (lambda v: {_id(k): item(x) for k, x in v.items()}), f"an object of id: {expected}"
    if hint is Pos:
        return _pos, "[x, y]"
    if is_dataclass(hint):
        as_dict = _exactly(dict)
        return (lambda v: decode(hint, as_dict(v))), f"an object of {hint.__name__} fields"
    if issubclass(hint, Enum):
        return {m.value: m for m in hint}.__getitem__, f"one of {[m.value for m in hint]}"
    kinds, expected = _KINDS[hint]
    return _exactly(*kinds), expected


# the JSON types that each plain annotation takes
_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
          bool: ((bool,), "true or false"), str: ((str,), "a string"), dict: ((dict,), "an object")}


def _exactly(*kinds: type):
    def convert(value):
        if type(value) not in kinds:
            raise TypeError
        return value
    return convert


def _id(key: str) -> int:
    """An id from an object key, which only ``str(id)`` spells."""
    if str(int(key)) != key:
        raise ValueError
    return int(key)


def _pos(value) -> Pos:
    if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is int:
        return Pos(*value)
    raise TypeError
